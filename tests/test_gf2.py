"""Field arithmetic tests: values and gate counts against bit-serial
references, reduction against long division, and the modulus scan against
an exhaustive low-weight search."""

import ast
import functools
import operator
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroseal import bench, gf2, modulus
from entroseal.bench import clmul_cost, reduce_cost
from entroseal.errors import LengthError, PreconditionError
from entroseal.gf2 import (
    Backend,
    BitPoly,
    FieldSpec,
    OpCount,
    clmul,
    find_irreducible,
    gf_mul,
    lsb_truncate,
    reduce_mod,
)
from entroseal.gf2ref import (
    clmul_karatsuba_counted,
    clmul_schoolbook_counted,
    clmul_shift_xor,
    factor_count_berlekamp,
    irreducible_by_trial_division,
    polydivmod,
    reduce_by_division,
    smallest_factor_degree,
    smallest_irreducible_lowweight_exhaustive,
)
from entroseal.modulus import is_irreducible

# Every spec below is built when a test asks for it, never at import:
# building one squares (a scan, or from_modulus's irreducibility walk), so
# a fault in a square or a walk fails the tests that use it by name rather
# than the collection of this whole file. Dense and top-heavy moduli:
# 1 + x + ... + x^100 (reduced by division) and x^127 + x^126 + 1, whose
# folds clear one bit a round.
SPECS = {
    "aes": lambda: FieldSpec.from_modulus(BitPoly(0x11B, 9)),
    "8": lambda: find_irreducible(8),
    "64": lambda: find_irreducible(64),
    "127": lambda: find_irreducible(127),
    "all-one-100": lambda: FieldSpec.from_modulus(
        BitPoly((1 << 101) - 1, 101)),
    "x127+x126+1": lambda: FieldSpec.from_modulus(
        BitPoly((1 << 127) | (1 << 126) | 1, 128)),
}


@pytest.fixture
def aes_spec():
    return SPECS["aes"]()


class TestBitPoly:
    def test_value_must_fit_width(self):
        with pytest.raises(LengthError):
            BitPoly(0b100, 2)

    def test_negative_inputs_rejected(self):
        with pytest.raises(PreconditionError):
            BitPoly(-1, 4)
        with pytest.raises(PreconditionError):
            BitPoly(0, -1)

    def test_degree(self):
        assert BitPoly(0, 4).degree == -1
        assert BitPoly(1, 4).degree == 0
        assert BitPoly(0b1011, 4).degree == 3

    def test_bit_access(self):
        p = BitPoly(0b0110, 4)
        assert [p.bit(i) for i in range(4)] == [0, 1, 1, 0]
        with pytest.raises(IndexError):
            p.bit(4)
        with pytest.raises(IndexError):
            p.bit(-1)

    def test_xor_requires_equal_widths(self):
        assert BitPoly(0b101, 3) ^ BitPoly(0b011, 3) == BitPoly(0b110, 3)
        with pytest.raises(LengthError):
            BitPoly(1, 3) ^ BitPoly(1, 4)

    def test_concat_puts_self_low(self):
        lo = BitPoly(0b01, 2)
        hi = BitPoly(0b1, 1)
        assert lo.concat(hi) == BitPoly(0b101, 3)
        # concatenating zero-width is the identity
        assert lo.concat(BitPoly(0, 0)) == lo
        assert BitPoly(0, 0).concat(lo) == lo

    def test_resize(self):
        p = BitPoly(0b101, 3)
        assert p.resize(8) == BitPoly(0b101, 8)
        assert p.resize(3) == p
        with pytest.raises(LengthError):
            p.resize(2)

    def test_bytes_roundtrip_little_endian(self):
        p = BitPoly(0x1C80, 16)
        raw = p.to_bytes()
        assert raw == bytes([0x80, 0x1C])
        assert BitPoly.from_bytes(raw, 16) == p
        # 9 bits use two bytes, high pad bits zero
        q = BitPoly(0x147, 9)
        assert q.to_bytes() == bytes([0x47, 0x01])
        assert BitPoly.from_bytes(q.to_bytes(), 9) == q

    def test_from_bytes_length_and_padding(self):
        with pytest.raises(LengthError):
            BitPoly.from_bytes(b"\x00", 16)
        with pytest.raises(LengthError):
            BitPoly.from_bytes(bytes([0x47, 0x02]), 9)  # bit 9 set

    def test_zero(self):
        assert BitPoly.zero(5) == BitPoly(0, 5)


# ---------------------------------------------------------------------------
# Carry-less multiplication: values and counts vs the bit-serial references
# ---------------------------------------------------------------------------

def test_clmul_exhaustive_small_widths_schoolbook():
    for na in range(1, 6):
        for nb in range(1, 6):
            cost = clmul_cost(na, nb, Backend.SCHOOLBOOK)
            for a in range(1 << na):
                for b in range(1 << nb):
                    prod = clmul(BitPoly(a, na), BitPoly(b, nb))
                    want, ands, xors = clmul_schoolbook_counted(a, na, b, nb)
                    assert prod.value == want
                    assert prod.nbits == na + nb
                    assert (cost.ands, cost.xors) == (ands, xors)


@pytest.mark.parametrize("width", [8, 64, 243, 729])
def test_clmul_matches_references_randomized(width):
    rng = random.Random(0xC1AD ^ width)
    for _ in range(30):
        a = rng.getrandbits(width) | (1 << (width - 1))
        b = rng.getrandbits(width)
        prod = clmul(BitPoly(a, width), BitPoly(b, width))
        cs = clmul_cost(width, width, Backend.SCHOOLBOOK)
        ck = clmul_cost(width, width, Backend.KARATSUBA)
        want, ands, xors = clmul_schoolbook_counted(a, width, b, width)
        assert prod.value == want
        assert (cs.ands, cs.xors) == (ands, xors)
        kwant, kands, kxors = clmul_karatsuba_counted(a, b, width)
        assert prod.value == kwant
        assert (ck.ands, ck.xors) == (kands, kxors)


def _comb_operands(width, rng):
    """Operands of one width where a byte-windowed comb could slip: zero,
    a power of x, the top bit alone, all ones, a lone top byte, a zero
    low byte, a zero byte inside, and (last) a random full-width value."""
    top = 8 * ((width - 1) // 8)  # shift of the highest byte
    mid = 8 * (top // 16)  # shift of a byte inside, below the top one
    rand = rng.getrandbits(width) | (1 << (width - 1))
    return [0, 1 << rng.randrange(width), 1 << (width - 1), (1 << width) - 1,
            rand >> top << top, rand & ~0xFF, rand & ~(0xFF << mid), rand]


COMB_WIDTHS = (1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257)
COMB_UNEQUAL = ((1, 257), (7, 65), (8, 15), (9, 256), (16, 255), (17, 63))


def test_clmul_comb_matches_schoolbook_at_byte_edges():
    # widths on both sides of byte boundaries, equal and unequal in both
    # argument orders (the comb swaps its operands by width); each special
    # operand meets a random one, plus zero times zero
    rng = random.Random(0xC0B)
    pairs = [(w, w) for w in COMB_WIDTHS]
    pairs += [p for na, nb in COMB_UNEQUAL for p in ((na, nb), (nb, na))]
    for na, nb in pairs:
        ops_a, ops_b = _comb_operands(na, rng), _comb_operands(nb, rng)
        cases = [(a, ops_b[-1]) for a in ops_a]
        cases += [(ops_a[-1], b) for b in ops_b] + [(0, 0)]
        for a, b in cases:
            want, _, _ = clmul_schoolbook_counted(a, na, b, nb)
            prod = clmul(BitPoly(a, na), BitPoly(b, nb))
            assert prod == BitPoly(want, na + nb), (na, nb, hex(a), hex(b))


# A width just under the widest table degree, 32768; the rows built on it
# cover products of one and two such widths and tables three times as wide.
BIG = 30720
NIBBLE = gf2._NIBBLE_WINDOW_BITS
WIDE = gf2._WIDE_COMB_BITS

# Widths at the comb's switches, where its window widens (4 to 8 bits,
# then 64-bit steps); widths at and one bit either side of a whole number
# of 64-bit steps (96 and 192 words); wide squares up to about twice the
# widest table degree; and the widths the scheme multiplies at.
SWITCH_WIDTHS = (NIBBLE, NIBBLE + 1, WIDE - 1, WIDE, WIDE + 1,
                 6143, 6144, 6145, 12287, 12289,
                 BIG - 1, BIG, BIG + 1, 2 * BIG - 1, 2 * BIG + 1,
                 16397, 32768)
# The comb's step follows the narrower operand alone, so a wider operand
# past a switch does not move it; the kernel swaps so that either operand
# order reaches the same comb.
SWITCH_UNEQUAL = (
    (32768, 16397),  # criterion 08's baseline: r times a half-width key
    (2 * BIG + 1, (3 * BIG) // 2 + 1),  # about three quarters as wide
    (2 * BIG + 1, (3 * BIG) // 2),  # the same, one bit narrower
    (BIG + 1, BIG),  # near-equal wide widths
    (3 * BIG, 13),  # a narrow window over a wide table
    (WIDE + 1, WIDE),  # only the wider operand past WIDE: 8-bit windows
    (BIG + 1, WIDE + 1),  # 64-bit steps over a wide table
    (3 * BIG, WIDE),  # 8-bit windows over a table three times as wide
    (6145, 6144),  # whole 64-bit steps, the wider one bit past them
    (12289, 9216),  # the same at 192 and 144 words
    (12289, 9217),  # both one bit past whole steps
    (18432, 13),  # one 4-bit window pass over a 288-word table
    # keys of a few kbit against a much wider u (t near n), all on 8-bit
    # windows
    (16384, 1408),
    (16384, 1409),
    (32768, 2048),
)


@pytest.mark.parametrize("na,nb", [(w, w) for w in SWITCH_WIDTHS] + [
    p for na, nb in SWITCH_UNEQUAL for p in ((na, nb), (nb, na))])
def test_clmul_matches_shift_xor_across_the_comb_switches(na, nb):
    # a narrower operand also meets its value resized to the wider width,
    # as criterion 08 resizes its key; the value and product must not move
    rng = random.Random(na * 65537 + nb)
    for _ in range(2):
        a = rng.getrandbits(na) | (1 << (na - 1))
        b = rng.getrandbits(nb) | (1 << (nb - 1))
        want = clmul_shift_xor(a, b)
        assert clmul(BitPoly(a, na), BitPoly(b, nb)) == BitPoly(want, na + nb)
        if nb < na:
            wide_b = BitPoly(b, nb).resize(na)
            assert clmul(BitPoly(a, na), wide_b) == BitPoly(want, 2 * na)


@pytest.mark.parametrize("width", [NIBBLE + 1, WIDE + 1, 6145, BIG + 1])
def test_clmul_special_operands_above_each_switch(width):
    rng = random.Random(width)
    ops = _comb_operands(width, rng)
    cases = [(a, ops[-1]) for a in ops] + [(ops[-1], b) for b in ops]
    for a, b in cases:
        prod = clmul(BitPoly(a, width), BitPoly(b, width))
        assert prod == BitPoly(clmul_shift_xor(a, b), 2 * width), (hex(a), hex(b))


def test_gf_mul_enters_clmul_once_at_the_widest_table_degree(monkeypatch):
    # a traced clmul sees exactly one call per field product, and that
    # call is one comb over the full width: the kernel does not split
    calls, kernel_calls = [], []
    clmul_real, kernel_real = gf2.clmul, gf2._comb_int

    def counted_clmul(a, b):
        calls.append((a.nbits, b.nbits))
        return clmul_real(a, b)

    def counted_kernel(a, b):
        kernel_calls.append(None)
        return kernel_real(a, b)

    monkeypatch.setattr(gf2, "clmul", counted_clmul)
    monkeypatch.setattr(gf2, "_comb_int", counted_kernel)
    spec = find_irreducible(32768)
    rng = random.Random(32768)
    a, b = (BitPoly(rng.getrandbits(32768), 32768) for _ in range(2))
    prod = gf_mul(a, b, spec)
    assert calls == [(32768, 32768)]
    assert len(kernel_calls) == 1
    want = BitPoly(clmul_shift_xor(a.value, b.value), 65536)
    assert prod == reduce_mod(want, spec)


def test_clmul_zero_width_operand():
    assert clmul(BitPoly(0, 0), BitPoly(0b11, 2)) == BitPoly(0, 2)
    assert clmul_cost(0, 2) == OpCount(0, 0)


SCHOOLBOOK_COST_CASES = [
    (1, 1, 1, 0),
    (5, 3, 15, 8),
    (8, 8, 64, 49),
    (45, 45, 2025, 1936),
    (64, 64, 4096, 3969),
]

# Karatsuba gate counts from the recurrence A(1)=1, A(v)=2A(ceil v/2)+A(floor);
# X(1)=0, X(v)=2X(ceil)+X(floor)+4v-4. Values below were computed once by an
# independent evaluation of the recurrence and are pinned against drift.
KARATSUBA_ANDS = {
    1: 1, 2: 3, 3: 7, 4: 9, 8: 27, 64: 729, 77: 1337, 128: 2187,
    243: 6463, 269: 8993, 512: 19683, 729: 44803, 1037: 68777, 2048: 177147,
}
KARATSUBA_XORS = {
    1: 0, 2: 4, 3: 16, 4: 24, 8: 100, 64: 3864, 77: 6444, 128: 12100,
    243: 36144, 269: 47196, 512: 114004, 729: 234544, 1037: 385164,
    2048: 1046500,
}


@pytest.mark.parametrize("na,nb,ands,xors", SCHOOLBOOK_COST_CASES)
def test_schoolbook_cost_formula(na, nb, ands, xors):
    assert clmul_cost(na, nb, Backend.SCHOOLBOOK) == OpCount(ands, xors)
    assert clmul_cost(nb, na, Backend.SCHOOLBOOK) == OpCount(ands, xors)


def test_karatsuba_cost_frozen_values():
    for width, ands in KARATSUBA_ANDS.items():
        assert clmul_cost(width, width, Backend.KARATSUBA).ands == ands
    for width, xors in KARATSUBA_XORS.items():
        assert clmul_cost(width, width, Backend.KARATSUBA).xors == xors


def test_karatsuba_cost_recurrence():
    def a_rec(v):
        if v <= 1:
            return v
        return 2 * a_rec((v + 1) // 2) + a_rec(v // 2)

    def x_rec(v):
        if v <= 1:
            return 0
        return 2 * x_rec((v + 1) // 2) + x_rec(v // 2) + 4 * v - 4

    for v in range(1, 300):
        c = clmul_cost(v, v, Backend.KARATSUBA)
        assert c.ands == a_rec(v)
        assert c.xors == x_rec(v)


def test_karatsuba_power_of_two_is_power_of_three():
    for k in range(12):
        assert clmul_cost(1 << k, 1 << k, Backend.KARATSUBA).ands == 3 ** k


def test_karatsuba_pads_mixed_widths():
    assert clmul_cost(5, 3, Backend.KARATSUBA) == clmul_cost(5, 5, Backend.KARATSUBA)
    assert clmul_cost(3, 5, Backend.KARATSUBA) == clmul_cost(5, 5, Backend.KARATSUBA)


def test_opcount_add_and_total():
    c = OpCount(2, 3) + OpCount(5, 7)
    assert c == OpCount(7, 10)
    assert c.total == 17


# ---------------------------------------------------------------------------
# Field spec and reduction
# ---------------------------------------------------------------------------

def test_fieldspec_from_modulus(aes_spec):
    assert aes_spec.lam == 8
    assert aes_spec.weight == 5
    assert aes_spec.reduction_exponents == (4, 3, 1, 0)


def test_fieldspec_rejects_reducible():
    with pytest.raises(PreconditionError):
        FieldSpec.from_modulus(BitPoly(0b10101, 5))  # (x^2 + x + 1)^2


def test_fieldspec_rejects_constants():
    with pytest.raises(PreconditionError):
        FieldSpec.from_modulus(BitPoly(1, 1))


REDUCE_COST_CASES = [
    # (lam, width, xors): weight-1 XORs per excess bit, over fold rounds
    (8, 16, 48),    # 8 excess * 4, then 4 re-created * 4
    (45, 90, 196),  # 45 * 4 + 4 * 4
    (64, 128, 272), # 64 * 4 + 4 * 4
    (8, 8, 0),
]


@pytest.mark.parametrize("lam,width,xors", REDUCE_COST_CASES)
def test_reduce_cost_frozen(lam, width, xors):
    spec = find_irreducible(lam)
    assert reduce_cost(width, spec) == OpCount(0, xors)


def test_reduce_cost_over_many_fold_rounds():
    # weight - 1 XORs per excess bit, the excess shrinking by one a round
    assert reduce_cost(200, SPECS["all-one-100"]()) == OpCount(0, 505000)
    assert reduce_cost(254, SPECS["x127+x126+1"]()) == OpCount(0, 16256)


def test_reduce_cost_rejects_overwide_input(aes_spec):
    with pytest.raises(PreconditionError):
        reduce_cost(17, aes_spec)
    with pytest.raises(PreconditionError):
        reduce_mod(BitPoly(0, 17), aes_spec)


def test_reduce_mod_exhaustive_small():
    spec = find_irreducible(4)
    for width in range(1, 9):
        for v in range(1 << width):
            got = reduce_mod(BitPoly(v, width), spec)
            assert got.value == reduce_by_division(v, spec.modulus.value)
            assert got.nbits == 4


@pytest.mark.parametrize("name", ["8", "64", "127", "all-one-100",
                                  "x127+x126+1"])
def test_reduce_mod_matches_long_division(name):
    spec = SPECS[name]()
    lam = spec.lam
    rng = random.Random(lam)
    for _ in range(200):
        width = rng.randint(lam, 2 * lam)
        v = rng.getrandbits(width)
        got = reduce_mod(BitPoly(v, width), spec)
        assert got.value == reduce_by_division(v, spec.modulus.value)


def test_reduce_mod_x_to_the_lam(aes_spec):
    # x^8 = x^4 + x^3 + x + 1 mod the AES polynomial
    got = reduce_mod(BitPoly(1 << 8, 16), aes_spec)
    assert got.value == 0b11011


# ---------------------------------------------------------------------------
# Field operations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [1, 2, 3, 4])
def test_field_axioms_exhaustive(lam):
    spec = find_irreducible(lam)
    els = [BitPoly(v, lam) for v in range(1 << lam)]
    one = BitPoly(1, lam)
    for a in els:
        assert gf_mul(a, one, spec) == a
        for b in els:
            ab = gf_mul(a, b, spec)
            assert ab == gf_mul(b, a, spec)
            for c in els:
                assert gf_mul(ab, c, spec) == gf_mul(a, gf_mul(b, c, spec), spec)
                assert gf_mul(a, b ^ c, spec) == ab ^ gf_mul(a, c, spec)


@pytest.mark.parametrize("lam", [4, 8])
def test_every_nonzero_element_has_unique_inverse(lam):
    spec = find_irreducible(lam)
    for a in range(1, 1 << lam):
        inverses = []
        ap = BitPoly(a, lam)
        for b in range(1, 1 << lam):
            if gf_mul(ap, BitPoly(b, lam), spec).value == 1:
                inverses.append(b)
        assert len(inverses) == 1, f"element {a:#x} has inverses {inverses}"


def test_frobenius_fixed_points():
    # a^(2^lam) == a for all field elements; spot-check lam = 8
    spec = find_irreducible(8)
    for a in (1, 2, 0x53, 0xCA, 0xFF):
        b = BitPoly(a, 8)
        for _ in range(8):
            b = gf_mul(b, b, spec)
        assert b.value == a


def test_gf_mul_rejects_overdegree_operands(aes_spec):
    with pytest.raises(PreconditionError):
        gf_mul(BitPoly(1 << 8, 9), BitPoly(1, 9), aes_spec)


def test_gf_mul_backends_agree():
    # the product matches the bit-serial reference of each cost model,
    # reduced by long division
    spec = find_irreducible(64)
    rng = random.Random(99)
    for _ in range(50):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        got = gf_mul(BitPoly(a, 64), BitPoly(b, 64), spec)
        school, _, _ = clmul_schoolbook_counted(a, 64, b, 64)
        kara, _, _ = clmul_karatsuba_counted(a, b, 64)
        for prod in (school, kara):
            assert got.value == reduce_by_division(prod, spec.modulus.value)


def test_lsb_truncate():
    p = BitPoly(0b10110, 5)
    assert lsb_truncate(p, 3) == BitPoly(0b110, 3)
    assert lsb_truncate(p, 0) == BitPoly(0, 0)
    assert lsb_truncate(p, 5) == p
    with pytest.raises(PreconditionError):
        lsb_truncate(p, 6)


# ---------------------------------------------------------------------------
# Irreducibility and the modulus scan (entroseal.modulus)
# ---------------------------------------------------------------------------

def test_is_irreducible_exhaustive_low_degree():
    for v in range(2, 1 << 7):
        p = BitPoly(v, 7)
        assert is_irreducible(p) == irreducible_by_trial_division(v)


def test_is_irreducible_randomized_against_trial_division():
    rng = random.Random(1234)
    for _ in range(300):
        d = rng.randint(2, 14)
        v = (1 << d) | rng.getrandbits(d)
        assert is_irreducible(BitPoly(v, d + 1)) == irreducible_by_trial_division(v)


def test_is_irreducible_known_cases():
    assert is_irreducible(BitPoly(0x11B, 9))
    assert not is_irreducible(BitPoly(0x11A, 9))   # divisible by x
    assert not is_irreducible(BitPoly(0b101, 3))   # (x+1)^2
    assert not is_irreducible(BitPoly(1, 1))       # constants
    assert not is_irreducible(BitPoly(0, 4))
    assert is_irreducible(BitPoly(0b10, 2))        # x itself is degree 1
    assert is_irreducible(BitPoly(0b11, 2))


SCAN_GOLDENS = {
    1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83,
    8: 0x11B, 9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B,
    14: 0x4021, 15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009,
    19: 0x80027, 20: 0x100009,
}


def test_find_irreducible_goldens():
    for lam, want in SCAN_GOLDENS.items():
        spec = find_irreducible(lam)
        assert spec.modulus.value == want, f"lam={lam}"
        assert spec.modulus.nbits == lam + 1
        assert spec.lam == lam


def test_find_irreducible_matches_exhaustive_oracle():
    # the oracle orders candidates by weight then value and trial-divides
    for lam in range(1, 21):
        want = smallest_irreducible_lowweight_exhaustive(lam)
        assert find_irreducible(lam).modulus.value == want


def test_find_irreducible_standard_large_degrees():
    assert find_irreducible(127).modulus.value == (1 << 127) | 0b11
    assert find_irreducible(64).reduction_exponents == (4, 3, 1, 0)


def test_rabin_agrees_with_trial_division_from_degree_one():
    # Rabin's test compares with x reduced mod f: at degree 1 that is
    # x + 1 -> 1, and comparing with x unreduced rejected x + 1. Every
    # odd mask up to degree 14 runs the fused square-and-fold walk.
    for f in range(3, 1 << 15, 2):
        want = irreducible_by_trial_division(f)
        assert (modulus._frobenius_walk(f, f.bit_length() - 1) == 0) == want
    assert modulus.scan(1) == (0,)  # x + 1


def test_find_irreducible_is_cached():
    assert find_irreducible(8) is find_irreducible(8)


def test_find_irreducible_rejects_degree_zero():
    with pytest.raises(PreconditionError):
        find_irreducible(0)


@pytest.mark.parametrize("lam", [2.0, True, "3"])
def test_find_irreducible_rejects_a_degree_that_is_not_an_int(lam):
    # a float or str used to fail deep in the scan with a bare TypeError,
    # and True was served as degree 1
    with pytest.raises(PreconditionError):
        find_irreducible(lam)


def test_modulus_table_entries_are_irreducible():
    # the table only skips the scan; every served modulus must still be
    # a genuine low-weight irreducible of the right degree
    for lam, exps in gf2._MODULUS_TABLE.items():
        spec = find_irreducible(lam)
        assert spec.modulus.degree == lam
        assert spec.reduction_exponents == tuple(sorted(exps, reverse=True))
        assert spec.weight in (3, 5)
        assert spec.modulus.value & 1
        # from_modulus raises if the served modulus is reducible
        assert spec == FieldSpec.from_modulus(spec.modulus)


# The table's degrees up to 4096 re-scan in about 2 s in all (cold scans
# of about 0.03, 0.25, 0.1 and 1.6 s at 1037, 2048, 2123 and 4096). 16397
# (a 16 s scan) and 32768 (over 600 s, never finished) would dominate
# tier-1, so they are checked for irreducibility alone, above and by
# Berlekamp's count in `verify gf2`.
@pytest.mark.parametrize("lam", [lam for lam in sorted(gf2._MODULUS_TABLE)
                                 if lam <= 4096])
def test_modulus_table_entry_is_the_first_in_scan_order(lam):
    # the goldens pin whatever the table serves, so an irreducible entry
    # that the scan would pass over is caught only here
    assert gf2._MODULUS_TABLE[lam] == modulus.scan(lam)


def _has_small_factor(f, lam):
    return modulus._has_small_factor(gf2._exponents_desc(f ^ (1 << lam)),
                                     modulus._power(lam))


def _remainders_by_division(lam, moduli):
    """x^e mod g for e <= lam, per g, each one polydivmod of the last
    times x: the scalar walk that the packed table holds for all g at
    once."""
    out = []
    for g in moduli:
        rems = [1]
        for _ in range(lam):
            rems.append(polydivmod(rems[-1] << 1, g)[1])
        out.append(rems)
    return out


def _x_power_by_division(e, g):
    """x^e mod g by square-and-multiply, each step reduced by polydivmod."""
    r = 1
    for bit in bin(e)[2:]:
        r = polydivmod(clmul_shift_xor(r, r), g)[1]
        if bit == "1":
            r = polydivmod(r << 1, g)[1]
    return r


def _unpack(r):
    """The 16-bit slots of a packed int, lowest first."""
    n = len(modulus._MODULI)
    return list(memoryview(r.to_bytes(2 * n, "little")).cast("H"))


def test_small_factor_sieve_matches_trial_division():
    # one process, five lambdas: the lam-independent table is built at
    # import and shared, and each base must still answer for its own lam.
    # Every trinomial of the scan's range and every pentanomial with a <= 24,
    # against division by each of the 225 irreducibles: f mod g is the
    # XOR of its terms' remainders, as division is linear. x^lam is a
    # merge of table entries from 1083 up, and at 2133 so is x^m for
    # every trinomial with m >= 2^_SIEVE_DEGREE - 1 (its planted
    # products' cofactor has the table degree 2123)
    depth = modulus._SIEVE_DEGREE
    small = [g for g in range(3, 1 << (depth + 1), 2)
             if irreducible_by_trial_division(g)]
    # one slot for every irreducible of degree <= depth but x
    assert list(modulus._sieve_moduli()) == small
    assert len(modulus._POWERS) == (1 << depth) - 1
    rng = random.Random(0x51E7E)
    for lam in (61, 130, 411, 1083, 2133):
        rems = _remainders_by_division(lam, small)
        base = modulus._power(lam)
        trinomials = [(m, 0) for m in range(1, lam // 2 + 1)]
        pentanomials = [(a, b, c, 0) for a in range(3, 25)
                        for b in range(2, a) for c in range(1, b)]
        seen = set()
        for exps in trinomials + pentanomials:
            want = any(
                functools.reduce(operator.xor, (r[e] for e in exps), r[lam])
                == 0 for r in rems)
            assert modulus._has_small_factor(exps, base) == want, \
                (lam, exps)
            seen.add(want)
        assert seen == {True, False}
        # products whose only small factor has the sieve's top degree
        h = find_irreducible(lam - depth).modulus.value
        top = [g for g in small if g.bit_length() == depth + 1]
        for g in rng.sample(top, 3):
            f = clmul_shift_xor(g, h)
            assert [polydivmod(f, q)[1] == 0 for q in small].count(True) == 1
            assert _has_small_factor(f, lam), (lam, hex(f))


def test_packed_step_matches_the_sieve_tables():
    # x^e mod g in every slot, shifted so that x^(deg g) would land on
    # bit _SIEVE_DEGREE of the slot, against division: for e < 2046, two
    # full periods of every g (the table, then merges of its entries),
    # one polydivmod step from x^(e-1), and far out by square-and-multiply
    moduli = modulus._MODULI
    shifts = [modulus._SIEVE_DEGREE + 1 - g.bit_length() for g in moduli]
    assert list(modulus._SHIFTS) == shifts
    walks = _remainders_by_division(2045, moduli)
    for e in range(2046):
        want = [walk[e] << s for walk, s in zip(walks, shifts)]
        assert _unpack(modulus._power(e)) == want, e
    for e in (2047, 4171, 32843, 10**6 + 3):
        want = [_x_power_by_division(e, g) << s
                for g, s in zip(moduli, shifts)]
        assert _unpack(modulus._power(e)) == want, e


def test_sieve_tables_match_a_plain_walk():
    # slot by slot, in order: for every odd g of degree d <= depth that
    # trial division finds irreducible, one walk of x^e mod g (shift, and
    # subtract g on overflow) over the table's 2^depth - 1 entries, and
    # x^(2^d - 1) = 1 mod g, the identity by which larger powers merge
    depth = modulus._SIEVE_DEGREE
    table = [_unpack(r) for r in modulus._POWERS]
    assert len(table) == (1 << depth) - 1
    slot = 0
    for g in range(3, 1 << (depth + 1), 2):
        if not irreducible_by_trial_division(g):
            continue
        d = g.bit_length() - 1
        walk, r = [], 1
        for _ in range(1 << depth):
            walk.append(r)
            r <<= 1
            if r >> d:
                r ^= g
        assert walk[(1 << d) - 1] == 1, hex(g)
        got = [row[slot] for row in table]
        assert got == [w << (depth - d) for w in walk[:-1]], hex(g)
        slot += 1
    assert slot == 225


def test_rabin_dense_fallback_agrees_with_trial_division():
    # more than 16 non-leading terms: each square is reduced by division
    rng = random.Random(0xDE45E)
    seen = set()
    for _ in range(60):
        d = rng.choice((20, 21, 22))
        f = (1 << (d + 1)) - 1
        for e in rng.sample(range(1, d), rng.randint(0, 3)):
            f ^= 1 << e
        assert gf2._fold_exponents(gf2._exponents_desc(f ^ (1 << d))) is None
        want = irreducible_by_trial_division(f)
        assert (modulus._frobenius_walk(f, d) == 0) == want, hex(f)
        seen.add(want)
    assert seen == {True, False}


@pytest.fixture
def squares(monkeypatch):
    """A one-item list counting the squaring steps of every _square_mod
    call the search makes from here on (a bare remainder counts none)."""
    count = [0]
    square_mod = modulus._square_mod

    def counted(b, steps, *args):
        count[0] += steps
        return square_mod(b, steps, *args)
    monkeypatch.setattr(modulus, "_square_mod", counted)
    return count


# The walk's checkpoints start at this degree.
CHECKED = modulus._CHECKPOINT_FROM


def _reject_step(lam, degrees):
    """Where the walk rejects a reducible f of degree lam whose factors of
    degree <= D have the given degrees: at the first checkpoint at or
    above the least of them (each checkpoint's stops hold a multiple of
    every degree up to it), or by Rabin's verdict at step lam."""
    if lam < CHECKED or not degrees:
        return lam
    return next(c for c in modulus._CHECKPOINTS if min(degrees) <= c)


# 61 and 130 lie below the checkpoints' start; the other four at or above.
@pytest.mark.parametrize("lam", [61, 130, CHECKED, CHECKED + 62, 411, 603])
def test_prefilter_rejects_a_planted_factor(squares, lam):
    # a factor of degree just above the sieve's up to D, with an
    # irreducible and a random cofactor, is rejected at the first
    # checkpoint that catches one of f's factors, after exactly that many
    # squares: 24 for a factor of degree <= 24 (the two lowest only
    # through their multiples), 48 for one in (24, 48]; below CHECKED,
    # the walk has no checkpoint and Rabin's verdict rejects f at lam
    rng = random.Random(lam)
    top = modulus._CHECKPOINTS[-1]
    steps = set()
    for d in (modulus._SIEVE_DEGREE + 1, 24, top):
        g = find_irreducible(d).modulus.value
        for h in (find_irreducible(lam - d).modulus.value,
                  (1 << (lam - d)) | rng.getrandbits(lam - d) | 1):
            f = clmul_shift_xor(g, h)
            assert polydivmod(f, g)[1] == 0
            low = smallest_factor_degree(h, top)
            want = _reject_step(lam, [d] + ([low] if low else []))
            squares[0] = 0
            assert modulus._frobenius_walk(f, lam) == want, (lam, d)
            assert squares[0] == want, (lam, d)
            steps.add(want)
    assert steps == ({lam} if lam < CHECKED else set(modulus._CHECKPOINTS))


def test_a_factor_just_above_the_sieve_is_left_to_the_walk():
    # the seam between the two tests: a factor of degree _SIEVE_DEGREE + 1,
    # planted with an irreducible cofactor of degree above D, passes the
    # sieve and is rejected at the walk's first checkpoint
    d = modulus._SIEVE_DEGREE + 1
    lam = CHECKED
    h = find_irreducible(lam - d).modulus.value
    planted = [g for g in range(1 << d, 1 << (d + 1))
               if irreducible_by_trial_division(g)]
    assert planted
    for g in planted:
        f = clmul_shift_xor(g, h)
        assert not _has_small_factor(f, lam), hex(g)
        assert modulus._frobenius_walk(f, lam) == modulus._CHECKPOINTS[0], hex(g)


# Every degree from D + 1 = 49 to 511 that the goldens pin (none is a
# table degree) and three above: 603 is scanned, 1037 and 2123 served from
# the table. The walk has checkpoints from CHECKED up, so the degrees from
# CHECKED - 1 to CHECKED + 63 cover their start.
@pytest.mark.parametrize("lam", sorted({
    *range(49, 161), *range(171, 512, 48), 603, 1037, 2123,
    *range(CHECKED - 1, CHECKED + 64)}))
def test_prefilter_passes_irreducible_moduli(squares, lam):
    # an irreducible of degree lam > D has no factor of degree <= D, so
    # the walk passes its checkpoints and ends: lam squares, verdict 0
    f = find_irreducible(lam).modulus.value
    squares[0] = 0
    assert modulus._frobenius_walk(f, lam) == 0
    assert squares[0] == lam


@pytest.mark.parametrize("lam", [603, 1083])
def test_one_walk_decides_each_scan_candidate(monkeypatch, squares, lam):
    # counts work, not time: each candidate the sieve passes is walked
    # once, so it costs 24 or 48 squares (a small factor) or lam (Rabin's
    # verdict), and the irreducible answer exactly lam; a separate
    # small-factor walk before Rabin's test would add to the latter
    starts = []
    has_small_factor = modulus._has_small_factor

    def start(exps, base):
        starts.append((gf2._poly(lam, exps), squares[0]))
        return has_small_factor(exps, base)
    monkeypatch.setattr(modulus, "_has_small_factor", start)
    answer = find_irreducible.__wrapped__(lam).modulus.value
    assert starts[-1][0] == answer
    ends = [at for _, at in starts[1:]] + [squares[0]]
    costs = [end - at for (_, at), end in zip(starts, ends)]
    assert costs[-1] == lam
    assert set(costs) <= {0, *modulus._CHECKPOINTS, lam}
    assert set(modulus._CHECKPOINTS) & set(costs)  # a checkpoint rejected some


def test_products_of_factors_above_d_reach_rabin_and_fail():
    # they pass the checkpoints, and Rabin's verdict at step lam rejects
    # them; every product is of degree CHECKED or more
    top = modulus._CHECKPOINTS[-1]
    pairs = ((top + 1, CHECKED - top - 1), (top + 1, CHECKED - top + 5),
             (top + 13, CHECKED))
    for d1, d2 in pairs:
        f = clmul_shift_xor(find_irreducible(d1).modulus.value,
                            find_irreducible(d2).modulus.value)
        assert modulus._frobenius_walk(f, d1 + d2) == d1 + d2


def test_walk_stops_are_rabins_and_the_checkpoint_range():
    # below CHECKED only Rabin's stops lam/p; from CHECKED up also every k
    # in (12, 48], with a gcd after 24 and 48 only
    assert modulus._walk_stops(CHECKED - 1) == ((1, False),)  # 239 is prime
    assert modulus._walk_stops(96) == ((32, False), (48, False))
    lam = 603  # 3^2 * 67: Rabin's stops 9 and 201
    stops = modulus._walk_stops(lam)
    assert [k for k, _ in stops] == [9, *range(13, 49), 201]
    assert [k for k, check in stops if check] == list(modulus._CHECKPOINTS)


def test_trinomial_and_its_reciprocal_agree():
    # the scan stops its trinomial pass at m = lam/2 on this symmetry
    for lam in range(2, 41):
        for m in range(1, lam):
            f = (1 << lam) | (1 << m) | 1
            r = (1 << lam) | (1 << (lam - m)) | 1
            assert (modulus._frobenius_walk(f, lam) == 0) == \
                (modulus._frobenius_walk(r, lam) == 0), (lam, m)


def _reciprocal(f):
    return int(f"{f:b}"[::-1], 2)


def test_is_irreducible_via_the_reciprocal_agrees_with_trial_division():
    # is_irreducible tests the reciprocal when it is the smaller mask, the
    # one with the lower second exponent
    tested = 0
    for f in range(5, 1 << 13, 2):
        if _reciprocal(f) < f:
            d = f.bit_length() - 1
            assert is_irreducible(BitPoly(f, d + 1)) == \
                irreducible_by_trial_division(f), hex(f)
            tested += 1
    assert tested > 1000


def test_top_heavy_trinomial_is_tested_through_its_reciprocal(monkeypatch):
    # x^1279 + x^1278 + 1 folds each square in about 1279 rounds; its
    # reciprocal x^1279 + x + 1 in one
    seen = []
    walk = modulus._frobenius_walk

    def record(f, lam):
        seen.append(f)
        return walk(f, lam)
    monkeypatch.setattr(modulus, "_frobenius_walk", record)
    heavy = (1 << 1279) | (1 << 1278) | 1
    light = (1 << 1279) | (1 << 1) | 1
    assert _reciprocal(heavy) == light
    assert is_irreducible(BitPoly(heavy, 1280)) == \
        is_irreducible(BitPoly(light, 1280))
    assert seen == [light, light]


@pytest.mark.parametrize("width", [*range(1, 18), 31, 32, 33, 255, 256,
                                   257, 4171, 32768])
def test_square_matches_shift_and_xor(width):
    # a square spreads each hex digit of v's big-endian bytes over a byte;
    # check every byte boundary, and every value up to width 8 (each digit
    # as a high and as a low nibble), against the plain product v * v,
    # modulo an f of degree 2*width + 1 that leaves the square unreduced,
    # once folding through f's low terms and once dividing f out
    lam = 2 * width + 1
    f = (1 << lam) | 0b11
    rng = random.Random(width)
    if width <= 8:
        values = range(1 << width)
    else:
        values = [0, 1, (1 << width) - 1, 1 << (width - 1)]
        values += [rng.getrandbits(width) for _ in range(20)]
    for v in values:
        want = clmul_shift_xor(v, v)
        for rest in (gf2._fold_exponents((1, 0)), None):
            assert gf2._square_mod(v, 1, f, lam, rest) == want, (width, hex(v))


# Moduli for each reduction path: pentanomials with constant term 1 take
# the unrolled fold, trinomials the loop over their exponents, and more
# than 16 terms long division. Squaring mod f needs no irreducible f.
SQUARE_MODULI = {
    "pentanomial-64": (64, (4, 3, 1, 0)),
    "pentanomial-163": (163, (7, 6, 3, 0)),
    "trinomial-127": (127, (1, 0)),
    "trinomial-100": (100, (37, 0)),
    "dense-100": (100, tuple(range(99, -1, -1))),
}


@pytest.mark.parametrize("steps", [2, 7])
@pytest.mark.parametrize("name", list(SQUARE_MODULI))
def test_repeated_squares_match_long_division(name, steps):
    # b^(2^steps) mod f against squaring by shift-and-xor and dividing f
    # out after each step, for reduced b and for b up to 2*lam wide
    lam, exps = SQUARE_MODULI[name]
    f = gf2._poly(lam, exps)
    rest = gf2._fold_exponents(exps)
    assert (rest is None) == name.startswith("dense")
    rng = random.Random(f"{name}-{steps}")
    values = [1, 2, (1 << lam) - 1, (1 << (2 * lam)) - 1]
    values += [rng.getrandbits(rng.choice((lam, 2 * lam))) for _ in range(30)]
    for v in values:
        want = reduce_by_division(v, f)
        for _ in range(steps):
            want = reduce_by_division(clmul_shift_xor(want, want), f)
        assert gf2._square_mod(v, steps, f, lam, rest) == want, hex(v)


def test_no_trinomials_at_degrees_divisible_by_eight():
    # Swan's theorem: each such trinomial is a square or has an even
    # number of factors, so _swan_reducible drops all of them
    for lam in (8, 16, 64):
        assert find_irreducible(lam).weight == 5
        for m in range(1, lam):
            f = BitPoly((1 << lam) | (1 << m) | 1, lam + 1)
            assert not is_irreducible(f)


def _trinomial(n, k):
    return (1 << n) | (1 << k) | 1


def test_swan_rejects_only_reducible_trinomials_up_to_degree_20():
    # every trinomial, both directions, against trial division
    rejected = 0
    for n in range(2, 21):
        for k in range(1, n):
            if modulus._swan_reducible(n, k):
                rejected += 1
                assert not irreducible_by_trial_division(_trinomial(n, k)), \
                    (n, k)
    assert rejected > 90


def test_swan_rejects_only_reducible_trinomials_from_degree_21_to_200():
    rejected = 0
    for n in range(21, 201):
        for k in range(1, n):
            if modulus._swan_reducible(n, k):
                rejected += 1
                assert not is_irreducible(BitPoly(_trinomial(n, k), n + 1)), \
                    (n, k)
    assert rejected > 12000


# Irreducible trinomials x^n + x^k + 1 with n in every class mod 8 that
# has them: the first one by ascending k at some degrees above 200, and
# the primitive trinomials of Mersenne-prime degree from 127 to 4423.
IRREDUCIBLE_TRINOMIALS = (
    (201, 14), (202, 55), (204, 27), (207, 43), (238, 73), (253, 46),
    (651, 14), (979, 178),
    (127, 1), (521, 32), (607, 105), (1279, 216), (2281, 715), (3217, 67),
    (4423, 271),
)


def test_swan_never_rejects_an_irreducible_trinomial():
    for n, k in IRREDUCIBLE_TRINOMIALS:
        assert is_irreducible(BitPoly(_trinomial(n, k), n + 1)), (n, k)
        assert not modulus._swan_reducible(n, k), (n, k)
        assert not modulus._swan_reducible(n, n - k), (n, n - k)
    assert {n % 8 for n, _ in IRREDUCIBLE_TRINOMIALS} == {1, 2, 3, 4, 5, 6, 7}


@pytest.mark.parametrize("lam", [603, 1002])
def test_swan_rejected_trinomials_reach_no_later_test(monkeypatch, lam):
    # counts work, not time: record every candidate the sieve and the
    # Frobenius walk see in one uncached scan
    seen = []

    def record(name, mask):
        test = getattr(modulus, name)

        def wrapper(*args):
            seen.append(mask(*args))
            return test(*args)
        monkeypatch.setattr(modulus, name, wrapper)
    record("_has_small_factor", lambda exps, base: gf2._poly(lam, exps))
    record("_frobenius_walk", lambda f, n: f)
    find_irreducible.__wrapped__(lam)
    base = (1 << lam) | 1
    trinomials = {f ^ base for f in seen
                  if f.bit_length() == lam + 1 and bin(f).count("1") == 3}
    assert trinomials, "some trinomial must still reach the sieve"
    for mid in trinomials:
        k = mid.bit_length() - 1
        assert not modulus._swan_reducible(lam, k), (lam, k)


def test_stickelberger_parity_matches_berlekamp_up_to_degree_32():
    # every pentanomial of degree 5..32 against Berlekamp's factor count
    # (None: a repeated factor); the parity test decides every one unless
    # lam and a are both even, and drops one exactly when it has a
    # repeated factor or an even number of factors
    seen = set()
    for lam in range(5, 33):
        for a in range(3, lam):
            for b in range(2, a):
                for c in range(1, b):
                    verdict = modulus._stickelberger_reducible(lam, a, b, c)
                    if verdict is None:
                        assert lam % 2 == 0 and a % 2 == 0, (lam, a, b, c)
                        continue
                    count = factor_count_berlekamp(
                        (1 << lam) | (1 << a) | (1 << b) | (1 << c) | 1)
                    assert verdict == (count is None or count % 2 == 0), \
                        (lam, a, b, c, count)
                    seen.add((verdict, count))
    assert {(False, 1), (True, None), (True, 2), (False, 3)} <= seen


@pytest.mark.parametrize("lam", [1083])
def test_parity_test_spares_walks_of_sieved_pentanomials(monkeypatch, lam):
    # counts work, not time: in one uncached scan, fewer pentanomials are
    # walked than pass the sieve, and the answer is among those walked
    passed, walked = [], []
    has_small_factor = modulus._has_small_factor
    walk = modulus._frobenius_walk

    def sieve(exps, base):
        found = has_small_factor(exps, base)
        if not found and len(exps) == 4:
            passed.append(gf2._poly(lam, exps))
        return found

    def record(f, n):
        if n == lam and f.bit_count() == 5:
            walked.append(f)
        return walk(f, n)
    monkeypatch.setattr(modulus, "_has_small_factor", sieve)
    monkeypatch.setattr(modulus, "_frobenius_walk", record)
    answer = find_irreducible.__wrapped__(lam).modulus.value
    assert walked[-1] == answer == passed[-1]
    assert set(walked) <= set(passed)
    assert len(walked) < len(passed)


def test_scan_ends_after_the_last_pentanomial(monkeypatch):
    # with every degree-40 candidate rejected by the walk, the scan raises
    # once the pentanomials run out, and never walks a denser mask
    lam = 40
    weights = set()

    def reject(f, n):
        assert f.bit_count() <= 5, hex(f)
        weights.add(f.bit_count())
        return n
    monkeypatch.setattr(modulus, "_frobenius_walk", reject)
    with pytest.raises(PreconditionError):
        find_irreducible.__wrapped__(lam)
    assert weights == {5}  # Swan's rule drops every trinomial: 8 | lam


def _module_level(module):
    """The top-level statements of a module's source."""
    return ast.parse(pathlib.Path(module.__file__).read_text()).body


def test_the_kernel_imports_the_search_only_inside_functions():
    # modulus imports gf2; gf2 loads modulus only on a table miss or in
    # from_modulus, so the two form no import cycle
    for node in _module_level(gf2):
        if isinstance(node, ast.ImportFrom):
            names = {node.module} | {a.name for a in node.names}
            assert not names & {"modulus", "entroseal.modulus"}, \
                ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(a.name != "entroseal.modulus" for a in node.names)


def test_no_search_name_is_defined_in_the_kernel():
    # each moved definition lives in modulus alone, with no alias in gf2
    defined = set()
    for node in _module_level(modulus):
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    defined.discard("__all__")
    assert {"scan", "is_irreducible", "_frobenius_walk"} <= defined
    assert not defined & set(vars(gf2)), defined & set(vars(gf2))


def test_the_kernel_holds_no_counting_rule():
    # gf2 computes and bench counts: each counting rule is defined in bench
    # alone, gf2 imports nothing from bench, not even inside a function,
    # and the two types that hold no rule stay in gf2
    rules = {"_kara_cost", "clmul_cost", "reduce_cost"}
    tree = ast.parse(pathlib.Path(gf2.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {node.module} | {a.name for a in node.names}
            assert not names & ({"bench", "entroseal.bench"} | rules), \
                ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(a.name != "entroseal.bench" for a in node.names)
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"OpCount", "Backend"} <= defined
    assert not rules & (defined | set(vars(gf2)))
    assert rules <= set(vars(bench))
    assert bench.OpCount is gf2.OpCount and bench.Backend is gf2.Backend


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@st.composite
def bitpoly_pairs(draw, max_bits=96):
    n = draw(st.integers(min_value=1, max_value=max_bits))
    a = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return BitPoly(a, n), BitPoly(b, n)


@given(bitpoly_pairs())
@settings(max_examples=60, deadline=None)
def test_clmul_commutes(pair):
    a, b = pair
    assert clmul(a, b) == clmul(b, a)


@given(bitpoly_pairs())
@settings(max_examples=60, deadline=None)
def test_clmul_distributes_over_xor(pair):
    a, b = pair
    c = BitPoly(a.value ^ b.value, a.nbits)
    rng = random.Random(a.value ^ (b.value << 1))
    m = BitPoly(rng.getrandbits(a.nbits), a.nbits)
    assert clmul(c, m) == clmul(a, m) ^ clmul(b, m)


@given(bitpoly_pairs(max_bits=48))
@settings(max_examples=60, deadline=None)
def test_clmul_degree_additive(pair):
    a, b = pair
    prod = clmul(a, b)
    if a.value == 0 or b.value == 0:
        assert prod.value == 0
    else:
        assert prod.degree == a.degree + b.degree


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_bytes_roundtrip_property(value, nbits):
    value &= (1 << nbits) - 1
    p = BitPoly(value, nbits)
    assert BitPoly.from_bytes(p.to_bytes(), nbits) == p


@given(st.integers(min_value=0, max_value=(1 << 16) - 1),
       st.integers(min_value=16, max_value=16))
@settings(max_examples=50, deadline=None)
def test_reduce_is_idempotent(value, width):
    spec = find_irreducible(16)
    first = reduce_mod(BitPoly(value, width), spec)
    assert reduce_mod(first.resize(16), spec) == first
    assert reduce_cost(16, spec) == OpCount(0, 0)
