"""Wire-format tests: the frozen golden vector, byte layout, round-trips,
and the malformed-input classification ladder."""

import pickle
import random

import pytest

from entroseal.cipher import (
    MAGIC,
    VERSION,
    Ciphertext,
    decrypt,
    deserialize,
    encrypt,
    gen,
    quantum_keytag,
    serialize,
)
from entroseal.errors import FormatError, WireErrorCode
from entroseal.gf2 import BitPoly
from entroseal.keyexpand import ExpansionParams, Mode
from entroseal.rng import RandomSource

# Frozen reference ciphertext: n = 16, ell = 9, all randomness from the
# deterministic source seeded with 42 (key, plaintext, then u and v).
GOLDEN_BLOB = bytes.fromhex(
    "455345310100100000000000000009000000000000000c005ec7fb")
GOLDEN_KEY = BitPoly(0x147, 9)
GOLDEN_X = BitPoly(0x1C80, 16)
GOLDEN_U = BitPoly(0xC, 9)
GOLDEN_V = BitPoly(0x5E, 7)
GOLDEN_PAYLOAD = BitPoly(0xFBC7, 16)


def golden_ciphertext() -> Ciphertext:
    return Ciphertext(n=16, ell=9, mode=Mode.CLASSICAL, u=GOLDEN_U,
                      v=GOLDEN_V, payload=GOLDEN_PAYLOAD)


def test_golden_vector_bytes():
    exp = ExpansionParams.classical(16, 9)
    rng = RandomSource(42)
    key = gen(exp, rng)
    x = rng.bits(16)
    c = encrypt(key, x, exp, rng)
    assert key == GOLDEN_KEY
    assert x == GOLDEN_X
    assert serialize(c) == GOLDEN_BLOB
    assert decrypt(key, c) == x


def test_golden_vector_layout():
    blob = GOLDEN_BLOB
    assert len(blob) == 27
    assert blob[:4] == MAGIC == b"ESE1"
    assert blob[4] == VERSION == 0x01
    assert blob[5] == 0x00  # classical
    assert int.from_bytes(blob[6:14], "little") == 16
    assert int.from_bytes(blob[14:22], "little") == 9
    assert blob[22:24] == GOLDEN_U.to_bytes()
    assert blob[24:25] == GOLDEN_V.to_bytes()
    assert blob[25:27] == GOLDEN_PAYLOAD.to_bytes()


def test_golden_vector_deserializes():
    c = deserialize(GOLDEN_BLOB)
    assert c == golden_ciphertext()
    assert decrypt(GOLDEN_KEY, c) == GOLDEN_X


def test_deserialize_validates_the_sizes_once(monkeypatch):
    # the sizes that cut the fields are the ciphertext's own: (n, ell,
    # mode) is validated once, and no field width is checked again; a
    # ciphertext that encrypt or quantum_keytag builds re-validates no size
    # and checks each input width once, not its fields again
    exp = ExpansionParams.classical(16, 9)
    qexp = ExpansionParams(8, 9, Mode.QUANTUM)
    inits, width_checks = [], []
    init, check_widths = ExpansionParams.__init__, ExpansionParams.check_widths

    def counted_init(self, *args):
        inits.append(args)
        init(self, *args)

    def counted_check_widths(self, **fields):
        width_checks.append(sorted(fields))
        check_widths(self, **fields)

    monkeypatch.setattr(ExpansionParams, "__init__", counted_init)
    monkeypatch.setattr(ExpansionParams, "check_widths", counted_check_widths)
    c = deserialize(GOLDEN_BLOB)
    assert inits == [(16, 9, Mode.CLASSICAL)]
    assert width_checks == []
    del inits[:]
    enc = encrypt(GOLDEN_KEY, GOLDEN_X, exp, RandomSource(42))
    tag = quantum_keytag(GOLDEN_KEY, qexp, RandomSource(42))
    assert inits == []
    assert width_checks == [["plaintext"], ["key", "u", "v"],
                            ["key", "u", "v"]]
    monkeypatch.undo()
    for built, sizes in ((enc, exp), (tag, qexp)):
        assert type(built) is Ciphertext
        assert (built.n, built.ell, built.mode) == (sizes.n, sizes.ell,
                                                    sizes.mode)
        assert built == Ciphertext(sizes.n, sizes.ell, sizes.mode, built.u,
                                   built.v, built.payload)
    want = golden_ciphertext()
    assert type(c) is Ciphertext
    assert c == want and hash(c) == hash(want) and repr(c) == repr(want)
    assert pickle.loads(pickle.dumps(c)) == want
    assert c.lam == 9 and c.tail_len == 7 and c.out_len == 16


@pytest.mark.parametrize("n,ell", [(1, 1), (8, 1), (8, 8), (16, 9),
                                   (33, 20), (64, 40)])
def test_classical_roundtrip(n, ell):
    exp = ExpansionParams.classical(n, ell)
    rng = RandomSource(n + ell)
    key = gen(exp, rng)
    c = encrypt(key, rng.bits(n), exp, rng)
    blob = serialize(c)
    back = deserialize(blob)
    assert back == c
    assert serialize(back) == blob


@pytest.mark.parametrize("n,ell", [(1, 1), (1, 2), (3, 2), (8, 11)])
def test_quantum_roundtrip(n, ell):
    exp = ExpansionParams.quantum(n, ell)
    rng = RandomSource(1000 + 10 * n + ell)
    tag = quantum_keytag(gen(exp, rng), exp, rng)
    blob = serialize(tag)
    assert blob[5] == 0x01
    back = deserialize(blob)
    assert back == tag


def test_tail_free_shape_has_empty_v_field():
    # ell = n: tail_len 0, v occupies zero bytes on the wire
    exp = ExpansionParams.classical(8, 8)
    rng = RandomSource(55)
    c = encrypt(gen(exp, rng), rng.bits(8), exp, rng)
    blob = serialize(c)
    assert len(blob) == 22 + 1 + 0 + 1
    assert deserialize(blob) == c


def expect_code(data: bytes, code: WireErrorCode):
    with pytest.raises(FormatError) as info:
        deserialize(data)
    assert info.value.code is code, (
        f"wanted {code}, got {info.value.code}: {info.value}")


class TestErrorLadder:
    def test_every_strict_prefix_is_truncated(self):
        for cut in range(len(GOLDEN_BLOB)):
            expect_code(GOLDEN_BLOB[:cut], WireErrorCode.TRUNCATED)

    def test_bad_magic(self):
        expect_code(b"XSE1" + GOLDEN_BLOB[4:], WireErrorCode.BAD_MAGIC)
        expect_code(b"ESE2" + GOLDEN_BLOB[4:], WireErrorCode.BAD_MAGIC)

    def test_bad_version(self):
        blob = bytearray(GOLDEN_BLOB)
        blob[4] = 0x02
        expect_code(bytes(blob), WireErrorCode.BAD_VERSION)

    def test_bad_mode(self):
        for mode_byte in (0x02, 0x07, 0xFF):
            blob = bytearray(GOLDEN_BLOB)
            blob[5] = mode_byte
            expect_code(bytes(blob), WireErrorCode.BAD_MODE)

    def test_bad_params(self):
        def with_header(n, ell, mode=0x00):
            return (MAGIC + bytes([VERSION, mode])
                    + n.to_bytes(8, "little") + ell.to_bytes(8, "little"))

        expect_code(with_header(0, 1), WireErrorCode.BAD_PARAMS)
        expect_code(with_header(16, 0), WireErrorCode.BAD_PARAMS)
        expect_code(with_header(16, 17), WireErrorCode.BAD_PARAMS)
        expect_code(with_header(16, 33, mode=0x01), WireErrorCode.BAD_PARAMS)

    def test_trailing_bytes_rejected(self):
        expect_code(GOLDEN_BLOB + b"\x00", WireErrorCode.LENGTH_MISMATCH)
        expect_code(GOLDEN_BLOB + b"\xff\xff", WireErrorCode.LENGTH_MISMATCH)

    def test_nonzero_padding_in_u(self):
        # u is 9 bits wide in 2 bytes; bits 10.. of its field must be zero
        blob = bytearray(GOLDEN_BLOB)
        blob[23] |= 0x80
        expect_code(bytes(blob), WireErrorCode.NONZERO_PADDING)

    def test_nonzero_padding_in_v(self):
        # v is 7 bits wide in 1 byte; its top bit must be zero
        blob = bytearray(GOLDEN_BLOB)
        blob[24] |= 0x80
        expect_code(bytes(blob), WireErrorCode.NONZERO_PADDING)

    def test_huge_length_fields_fail_fast(self):
        # expected body length is computed arithmetically, so absurd n
        # must be rejected as truncated without allocating anything
        header = (MAGIC + bytes([VERSION, 0x00])
                  + (1 << 60).to_bytes(8, "little")
                  + (1 << 59).to_bytes(8, "little"))
        expect_code(header + b"\x00" * 100, WireErrorCode.TRUNCATED)


def test_fuzz_never_crashes_and_classifies():
    rng = random.Random(0xF022)
    base = bytearray(GOLDEN_BLOB)
    outcomes = set()
    for trial in range(2000):
        choice = rng.randrange(4)
        if choice == 0:
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        elif choice == 1:
            blob = bytearray(base)
            for _ in range(rng.randrange(1, 4)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            data = bytes(blob)
        elif choice == 2:
            data = bytes(base[:rng.randrange(len(base) + 1)])
        else:
            data = bytes(base) + bytes(rng.randrange(256)
                                       for _ in range(rng.randrange(1, 8)))
        try:
            c = deserialize(data)
            assert serialize(c) == data  # parsing is canonical
            outcomes.add("ok")
        except FormatError as exc:
            assert isinstance(exc.code, WireErrorCode)
            outcomes.add(exc.code)
    # the fuzz corpus must actually exercise a spread of failure classes
    assert {WireErrorCode.BAD_MAGIC, WireErrorCode.TRUNCATED} <= outcomes
