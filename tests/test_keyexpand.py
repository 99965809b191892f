"""Key expansion tests: sizing rules, the affine structure of the pad and
its BitPoly formula, baseline maps against the field oracle, and tail
uniformity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroseal.cipher import (decrypt, deserialize, encrypt_with,
                              quantum_keytag_with, serialize)
from entroseal.errors import LengthError, ParameterError, PreconditionError
from entroseal.gf2 import (BitPoly, clmul, find_irreducible, gf_mul,
                           lsb_truncate, reduce_mod)
from entroseal.gf2ref import clmul_karatsuba_counted, clmul_schoolbook_counted
from entroseal.keyexpand import (
    ExpansionParams,
    Mode,
    expand_affine,
    expand_fullmul,
    sample_public_randomness,
)
from entroseal.rng import RandomSource
from entroseal.statlab import chi_squared_uniform


def test_mode_values():
    assert Mode.CLASSICAL.value == "classical"
    assert Mode.QUANTUM.value == "quantum"


class TestExpansionParams:
    def test_classical_factory(self):
        p = ExpansionParams.classical(16, 9)
        assert (p.lam, p.out_len, p.tail_len) == (9, 16, 7)
        q = ExpansionParams.classical(16, 4)
        assert (q.lam, q.out_len, q.tail_len) == (12, 16, 12)

    def test_quantum_factory(self):
        p = ExpansionParams.quantum(2, 1)
        assert (p.lam, p.out_len, p.tail_len) == (3, 4, 3)
        q = ExpansionParams.quantum(2, 4)
        assert (q.lam, q.out_len, q.tail_len) == (4, 4, 0)

    def test_lambda_is_never_below_half_the_pad(self):
        for n in range(1, 12):
            for ell in range(1, n + 1):
                p = ExpansionParams.classical(n, ell)
                assert p.lam == max(ell, n - ell)
                assert p.lam >= n - ell
            for ell in range(1, 2 * n + 1):
                q = ExpansionParams.quantum(n, ell)
                assert q.lam == max(ell, 2 * n - ell)

    def test_sizes_are_derived_from_three_fields(self):
        assert ExpansionParams._fields == ("n", "ell", "mode")
        p = ExpansionParams(8, 3, Mode.CLASSICAL)
        assert p == ExpansionParams.classical(8, 3)
        assert (p.lam, p.out_len, p.tail_len) == (5, 8, 5)
        q = ExpansionParams(8, 3, Mode.QUANTUM)
        assert q == ExpansionParams.quantum(8, 3)
        assert (q.lam, q.out_len, q.tail_len) == (13, 16, 13)

    def test_string_mode_is_parsed_at_construction(self):
        p = ExpansionParams(16, 8, "classical")
        assert p == ExpansionParams(16, 8, Mode.CLASSICAL)
        assert p.mode is Mode.CLASSICAL
        assert (p.lam, p.out_len, p.tail_len) == (8, 16, 8)
        q = ExpansionParams(16, 8, "quantum")
        assert q == ExpansionParams.quantum(16, 8)
        assert (q.lam, q.out_len, q.tail_len) == (24, 32, 24)
        with pytest.raises(ParameterError, match="unknown mode"):
            ExpansionParams(16, 8, "bogus")

    def test_rejects_out_of_range_ell(self):
        with pytest.raises(ParameterError):
            ExpansionParams.classical(8, 0)
        with pytest.raises(ParameterError):
            ExpansionParams.classical(8, 9)
        with pytest.raises(ParameterError):
            ExpansionParams.quantum(8, 17)
        ExpansionParams.quantum(8, 16)  # 2n is allowed

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ParameterError):
            ExpansionParams.classical(0, 1)

    @pytest.mark.parametrize("n,ell,name", [(64.0, 16, "n"), (True, 1, "n"),
                                            (8, 3.0, "ell"), (8, True, "ell")])
    def test_rejects_a_size_that_is_not_an_int(self, n, ell, name):
        with pytest.raises(ParameterError, match=f"^{name} must be an int"):
            ExpansionParams(n, ell, "classical")


class TestExpandAffine:
    def test_frozen_vector(self):
        exp = ExpansionParams.classical(16, 9)
        pad = expand_affine(BitPoly(0x147, 9), BitPoly(0xC, 9),
                            BitPoly(0x5E, 7), exp)
        assert pad == BitPoly(0xE747, 16)

    def test_full_length_key_is_the_pad(self):
        exp = ExpansionParams.classical(8, 8)
        key = BitPoly(0xA5, 8)
        pad = expand_affine(key, BitPoly(0x3C, 8), BitPoly(0, 0), exp)
        assert pad == key
        qexp = ExpansionParams.quantum(3, 6)
        qkey = BitPoly(0b101101, 6)
        assert expand_affine(qkey, BitPoly(0, 6), BitPoly(0, 0), qexp) == qkey

    def test_zero_u_gives_key_concat_v(self):
        exp = ExpansionParams.classical(10, 4)
        key = BitPoly(0b1011, 4)
        v = BitPoly(0b110010, 6)
        pad = expand_affine(key, BitPoly(0, 6), v, exp)
        assert pad == key.concat(v)

    def test_unit_u_multiplies_by_one(self):
        # u = 1 is the field identity, so the tail is just the low bits
        # of the embedded key, masked by v
        exp = ExpansionParams.classical(12, 7)
        key = BitPoly(0b1010011, 7)
        v = BitPoly(0b10001, 5)
        pad = expand_affine(key, BitPoly(1, 7), v, exp)
        want_tail = BitPoly(key.value & 0b11111, 5) ^ v
        assert pad == key.concat(want_tail)

    def test_low_bits_always_echo_the_key(self):
        rng = random.Random(5)
        exp = ExpansionParams.classical(20, 6)
        for _ in range(25):
            key = BitPoly(rng.getrandbits(6), 6)
            u = BitPoly(rng.getrandbits(exp.lam), exp.lam)
            v = BitPoly(rng.getrandbits(exp.tail_len), exp.tail_len)
            pad = expand_affine(key, u, v, exp)
            assert pad.value & 0x3F == key.value

    def test_affine_in_v(self):
        rng = random.Random(6)
        exp = ExpansionParams.quantum(4, 3)
        for _ in range(20):
            key = BitPoly(rng.getrandbits(3), 3)
            u = BitPoly(rng.getrandbits(exp.lam), exp.lam)
            v = BitPoly(rng.getrandbits(exp.tail_len), exp.tail_len)
            base = expand_affine(key, u, BitPoly(0, exp.tail_len), exp)
            shifted = expand_affine(key, u, v, exp)
            assert shifted == base ^ BitPoly(v.value << exp.ell, exp.out_len)

    def test_linear_in_key_at_zero_v(self):
        rng = random.Random(7)
        exp = ExpansionParams.classical(16, 7)
        zero_v = BitPoly(0, exp.tail_len)
        for _ in range(20):
            k1 = BitPoly(rng.getrandbits(7), 7)
            k2 = BitPoly(rng.getrandbits(7), 7)
            u = BitPoly(rng.getrandbits(exp.lam), exp.lam)
            lhs = expand_affine(k1 ^ k2, u, zero_v, exp)
            rhs = expand_affine(k1, u, zero_v, exp) ^ expand_affine(k2, u, zero_v, exp)
            assert lhs == rhs

    def test_tiny_field_hand_enumeration(self):
        # n = 2, ell = 1: lambda = 1, GF(2) multiplication is AND
        exp = ExpansionParams.classical(2, 1)
        for k in range(2):
            for u in range(2):
                for v in range(2):
                    pad = expand_affine(BitPoly(k, 1), BitPoly(u, 1),
                                        BitPoly(v, 1), exp)
                    assert pad.value == k | (((u & k) ^ v) << 1)

    def test_backend_agreement(self):
        # the pad's tail matches u * key computed by the bit-serial
        # reference of each cost model, then reduced and truncated
        rng = random.Random(8)
        exp = ExpansionParams.classical(64, 20)
        spec = find_irreducible(exp.lam)
        for _ in range(10):
            key = BitPoly(rng.getrandbits(20), 20)
            u = BitPoly(rng.getrandbits(exp.lam), exp.lam)
            v = BitPoly(rng.getrandbits(exp.tail_len), exp.tail_len)
            pad = expand_affine(key, u, v, exp)
            school, _, _ = clmul_schoolbook_counted(
                u.value, exp.lam, key.value, exp.lam)
            kara, _, _ = clmul_karatsuba_counted(u.value, key.value, exp.lam)
            for prod in (school, kara):
                field = reduce_mod(BitPoly(prod, 2 * exp.lam), spec)
                tail = lsb_truncate(field, exp.tail_len) ^ v
                assert pad == key.concat(tail)

    def test_length_validation(self):
        exp = ExpansionParams.classical(16, 9)
        key, u, v = BitPoly(0, 9), BitPoly(0, 9), BitPoly(0, 7)
        with pytest.raises(LengthError):
            expand_affine(BitPoly(0, 8), u, v, exp)
        with pytest.raises(LengthError):
            expand_affine(key, BitPoly(0, 8), v, exp)
        with pytest.raises(LengthError):
            expand_affine(key, u, BitPoly(0, 8), exp)


def _fits(p):
    # the results below are built without BitPoly's checks, so each must
    # still fit its declared width
    assert p.value >= 0 and p.value >> p.nbits == 0, p
    return p


# How ell compares with tail_len = out_len - ell: no tail at all, the key
# longer (lam = ell), the tail longer (lam = tail_len), or both equal.
_SHAPES = {
    "no-tail": lambda out_len: (out_len, out_len),
    "key-longer": lambda out_len: (out_len // 2 + 1, out_len - 1),
    "tail-longer": lambda out_len: (1, (out_len - 1) // 2),
    "equal": lambda out_len: (out_len // 2, out_len // 2),
}


@pytest.mark.parametrize("shape", list(_SHAPES))
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_expand_affine_matches_the_bitpoly_composition(mode, shape, data):
    # expand_affine computes on the coefficient masks; the formula spelled
    # out in BitPoly operations judges it, and each caller's result
    n = data.draw(st.integers(3, 160))
    out_len = n if mode is Mode.CLASSICAL else 2 * n
    if shape == "equal" and out_len % 2:
        n += 1  # n + 1 is even, and so is 2n
        out_len = n if mode is Mode.CLASSICAL else 2 * n
    low, high = _SHAPES[shape](out_len)
    exp = ExpansionParams(n, data.draw(st.integers(low, high)), mode)
    key, u, v = (BitPoly(data.draw(st.integers(0, (1 << w) - 1)), w)
                 for w in (exp.ell, exp.lam, exp.tail_len))
    spec = find_irreducible(exp.lam)
    wide_key = key.resize(exp.lam)
    product = _fits(clmul(u, wide_key))
    assert _fits(reduce_mod(product, spec)) == _fits(gf_mul(u, key, spec))
    want = key.concat(
        lsb_truncate(gf_mul(u, wide_key, spec), exp.tail_len) ^ v)
    pad = _fits(expand_affine(key, u, v, exp))
    assert pad == want and pad.nbits == exp.out_len
    if mode is Mode.QUANTUM:
        assert quantum_keytag_with(key, exp, u, v).payload == want
        return
    x = BitPoly(data.draw(st.integers(0, (1 << n) - 1)), n)
    c = encrypt_with(key, x, exp, u, v)
    assert _fits(c.payload) == x ^ want
    back = deserialize(serialize(c))
    assert all(_fits(p) for p in (back.u, back.v, back.payload))
    assert back == c
    assert _fits(decrypt(key, back)) == x
    assert all(_fits(p) for p in sample_public_randomness(
        exp, RandomSource(n)))


class TestBaselines:
    def test_classical_baseline_matches_field_oracle(self):
        exp = ExpansionParams.classical(16, 9)
        spec = find_irreducible(16)
        rng = random.Random(9)
        for _ in range(20):
            key = BitPoly(rng.getrandbits(9), 9)
            i = BitPoly(rng.getrandbits(16), 16)
            got = expand_fullmul(key, i, exp)
            want = gf_mul(key.resize(16), i, spec)
            assert got == want

    def test_quantum_baseline_matches_field_oracle(self):
        exp = ExpansionParams.quantum(8, 5)
        spec = find_irreducible(16)
        rng = random.Random(10)
        for _ in range(20):
            key = BitPoly(rng.getrandbits(5), 5)
            alpha = BitPoly(rng.getrandbits(16), 16)
            got = expand_fullmul(key, alpha, exp)
            want = gf_mul(key.resize(16), alpha, spec)
            assert got == want

    def test_mode_mismatch_rejected(self):
        # the multiplier's width follows the mode: n bits classical, 2n
        # quantum; one sized for the other mode is rejected
        cexp = ExpansionParams.classical(8, 4)
        qexp = ExpansionParams.quantum(8, 4)
        with pytest.raises(PreconditionError):
            expand_fullmul(BitPoly(0, 4), BitPoly(0, 16), cexp)
        with pytest.raises(PreconditionError):
            expand_fullmul(BitPoly(0, 4), BitPoly(0, 8), qexp)

    def test_baseline_length_validation(self):
        exp = ExpansionParams.classical(8, 4)
        with pytest.raises(LengthError):
            expand_fullmul(BitPoly(0, 5), BitPoly(0, 8), exp)
        with pytest.raises(LengthError):
            expand_fullmul(BitPoly(0, 4), BitPoly(0, 7), exp)


def test_sample_public_randomness_shapes():
    exp = ExpansionParams.classical(16, 9)
    u, v = sample_public_randomness(exp, RandomSource(1))
    assert (u.nbits, v.nbits) == (9, 7)
    full = ExpansionParams.classical(8, 8)
    u2, v2 = sample_public_randomness(full, RandomSource(1))
    assert (u2.nbits, v2.nbits) == (8, 0)


def test_sample_public_randomness_is_seed_deterministic():
    exp = ExpansionParams.quantum(16, 11)
    a = sample_public_randomness(exp, RandomSource(77))
    b = sample_public_randomness(exp, RandomSource(77))
    assert a == b


def test_tail_uniform_over_public_randomness():
    # with k fixed and nonzero, u -> u*k is a field bijection, so the
    # truncated tail must look uniform; chi-squared at the 1e-3 level
    exp = ExpansionParams.classical(16, 8)
    key = BitPoly(0x53, 8)
    zero_v = BitPoly(0, 8)
    rng = RandomSource(2024)
    counts = {}
    for _ in range(100_000):
        u = rng.bits(exp.lam)
        pad = expand_affine(key, u, zero_v, exp)
        tail = pad.value >> 8
        counts[tail] = counts.get(tail, 0) + 1
    report = chi_squared_uniform(counts, 8)
    assert report.passed, report.line()
