"""Polynomials over GF(2) and binary-field arithmetic: this module computes.

A polynomial a(x) = sum a_i x^i with a_i in {0,1} is stored as a Python
integer whose bit i is the coefficient a_i, together with an explicit
bit-length so that fixed-width strings and polynomials share one type.
Computing and counting live in separate modules: :func:`clmul`,
:func:`reduce_mod` and :func:`gf_mul` here return only the exact product,
while :mod:`entroseal.bench` holds the count model, the rules for the
two-input AND and XOR gates a hardware realization of the chosen
:class:`Backend` would use. :class:`Backend` names a model and
:class:`OpCount` holds a count; neither carries a counting rule, so both
are defined here. Every product is evaluated by one windowed comb
(Horner's rule over a table of multiples of the wider operand), with no
Karatsuba split. A comb over a narrower operand of more than about
3.5 kbit reads it 64 bits a step through 16 nibble tables, so that each
step costs one big-int shift, not eight (Lopez & Dahab, INDOCRYPT 2000).
Karatsuba is only a count model (``Backend.KARATSUBA``).

One loop, :func:`_square_mod`, computes every remainder and every square
modulo f: :func:`reduce_mod` calls it, and so do every step and product
of the Frobenius walk in :mod:`entroseal.modulus`. It folds a sparse f
through its non-leading terms until the value fits and divides a dense
one out; only ``bench.reduce_cost`` knows the fixed round structure of
the counted network. Only the standard library is used: a square is the
hex digits of its operand's bytes (``bytes.hex``), each mapped by one
``bytes.translate`` table to its nibble spread over a byte.

:func:`find_irreducible` picks each field's modulus on one path: a table
of precomputed moduli or else the scan of :mod:`entroseal.modulus`,
cached per degree by ``lru_cache``. Both give a modulus as its
non-leading exponents, the table's row shape, from which one constructor
builds the :class:`FieldSpec`. :mod:`entroseal.modulus` imports this
module, never the other way round at load time: the search is imported
only on a table miss, and :meth:`FieldSpec.from_modulus` imports its
irreducibility test only when called, so a table degree never loads it.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from ._record import Record
from .errors import LengthError, PreconditionError

__all__ = [
    "BitPoly",
    "OpCount",
    "Backend",
    "FieldSpec",
    "clmul",
    "reduce_mod",
    "gf_mul",
    "lsb_truncate",
    "find_irreducible",
]


class BitPoly(Record):
    """A GF(2) polynomial (equivalently a bit string) of fixed width.

    Parameters
    ----------
    value : int
        Coefficient mask; bit i is the coefficient of x^i.
    nbits : int
        Declared width. ``value`` must fit, i.e. ``value >> nbits == 0``.
    """

    __slots__ = _fields = ("value", "nbits")

    def __init__(self, value: int, nbits: int) -> None:
        if nbits < 0:
            raise PreconditionError("nbits must be nonnegative")
        if value < 0:
            raise PreconditionError("value must be nonnegative")
        if value >> nbits:
            raise LengthError(
                f"value needs {value.bit_length()} bits, declared {nbits}"
            )
        _set_value(self, value)
        _set_nbits(self, nbits)

    @property
    def degree(self) -> int:
        """Degree of the polynomial, or -1 for the zero polynomial."""
        return self.value.bit_length() - 1

    def bit(self, i: int) -> int:
        if not 0 <= i < self.nbits:
            raise IndexError(f"bit {i} out of range for width {self.nbits}")
        return (self.value >> i) & 1

    def __xor__(self, other: "BitPoly") -> "BitPoly":
        if self.nbits != other.nbits:
            raise LengthError(f"width mismatch: {self.nbits} vs {other.nbits}")
        return _bitpoly(self.value ^ other.value, self.nbits)

    def concat(self, other: "BitPoly") -> "BitPoly":
        """Concatenate, with ``self`` occupying the low-order bits."""
        return _bitpoly(self.value | (other.value << self.nbits),
                        self.nbits + other.nbits)

    def resize(self, nbits: int) -> "BitPoly":
        """Zero-extend or (losslessly) narrow to ``nbits`` bits."""
        if nbits < self.value.bit_length():
            raise LengthError(
                f"cannot narrow to {nbits} bits without dropping set bits"
            )
        return _bitpoly(self.value, nbits)

    def to_bytes(self) -> bytes:
        """Little-endian packing; bit i of the string is bit i%8 of byte i//8."""
        return self.value.to_bytes((self.nbits + 7) // 8, "little")

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "BitPoly":
        if len(data) != (nbits + 7) // 8:
            raise LengthError(
                f"need {(nbits + 7) // 8} bytes for {nbits} bits, got {len(data)}"
            )
        value = int.from_bytes(data, "little")
        if value >> nbits:
            raise LengthError("padding bits beyond declared width are set")
        return _bitpoly(value, nbits)

    @classmethod
    def zero(cls, nbits: int) -> "BitPoly":
        return cls(0, nbits)

    def __repr__(self) -> str:
        return f"BitPoly({self.value:#x}, nbits={self.nbits})"


# Several BitPolys are built per multiply, so their slots are written
# through the slot descriptors' own setters, the cheapest way past the
# frozen __setattr__.
_set_value = BitPoly.value.__set__
_set_nbits = BitPoly.nbits.__set__
_new = object.__new__


def _bitpoly(value: int, nbits: int) -> BitPoly:
    """``BitPoly(value, nbits)`` without its checks, for a value that fits
    its width by construction (``value >> nbits == 0``): the result of an
    operation on checked BitPolys, or a value whose width was just checked.
    Every result on the encrypt and decrypt path is built here once."""
    p = _new(BitPoly)
    _set_value(p, value)
    _set_nbits(p, nbits)
    return p


class OpCount(Record):
    """Exact count of two-input AND and XOR gates."""

    __slots__ = _fields = ("ands", "xors")

    def __init__(self, ands: int = 0, xors: int = 0) -> None:
        object.__setattr__(self, "ands", ands)
        object.__setattr__(self, "xors", xors)

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(self.ands + other.ands, self.xors + other.xors)

    @property
    def total(self) -> int:
        return self.ands + self.xors


class Backend(enum.Enum):
    """Gate-count model for a carry-less multiply.

    It selects only how a product is counted; every product is evaluated
    by the same exact kernel, so the choice never changes a value or a
    timing: ``bench.time_expansion`` takes no backend, and the bench
    times each method once per size.
    """

    SCHOOLBOOK = "schoolbook"
    KARATSUBA = "karatsuba"


# The carry-less comb's constants, each picked by an interleaved timing
# sweep: it uses 4-bit windows while the narrower operand has up to
# _NIBBLE_WINDOW_BITS (its 16-entry table is cheaper to build than 256
# entries, which only pay off over many bytes), 8-bit windows up to
# _WIDE_COMB_BITS and 64-bit Horner steps above (where the seven big-int
# shifts they save per 64 bits cost more than the eight XORs they add).
# Horner's rule runs over blocks of _COMB_BLOCK windows or
# _WIDE_COMB_BLOCK 64-bit words, so that each step shifts a value about as
# wide as the wider operand rather than the whole product.
_NIBBLE_WINDOW_BITS = 896
_WIDE_COMB_BITS = 3456
_COMB_BLOCK = 64
_WIDE_COMB_BLOCK = 16

_LOW_NIBBLE = bytes(w & 15 for w in range(256))
_HIGH_NIBBLE = bytes(w >> 4 for w in range(256))


def _comb_int(a: int, b: int) -> int:
    """Carry-less product of two coefficient masks (windowed comb).

    With a the wider operand and b the narrower, of width nb: up to
    _WIDE_COMB_BITS of b, tabulates a*w for every k-bit window w, one XOR
    per entry, with k = 4 or 8 by nb. Then walks every window of b, top
    first, in blocks: within a block, part = part x^k + a*w (Horner's
    rule), and each finished block is added into the product once, shifted
    into place. A wider b goes to :func:`_comb_wide`, which shifts once per
    64 bits of b instead of once per window. No window is skipped, whatever
    its value, and every branch depends on the operands' bit lengths only.
    The time grows with the product of the widths: there is no Karatsuba
    split, which would only pay off once b is wider than about 40 kbit.
    """
    if a.bit_length() < b.bit_length():
        a, b = b, a
    nb = b.bit_length()
    if nb > _WIDE_COMB_BITS:
        return _comb_wide(a, b)
    k = 8 if nb > _NIBBLE_WINDOW_BITS else 4
    table = _window_table(a, k)
    windows = b.to_bytes((nb + 7) // 8, "little")
    if k == 4:
        windows = _nibbles(windows)
    acc = 0
    for s in range(0, len(windows), _COMB_BLOCK):
        part = 0
        for w in reversed(windows[s:s + _COMB_BLOCK]):
            part = (part << k) ^ table[w]
        acc ^= part << (k * s)
    return acc


def _comb_wide(a: int, b: int) -> int:
    """Carry-less product of a by a no wider b, 64 bits of b a step.

    Tabulates T_j[w] = a*w*x^(4j) for every nibble w and each j < 16: 256
    entries from 240 XORs, as many as one 8-bit window table. Then walks
    b a 64-bit word at a time, top first, in blocks of _WIDE_COMB_BLOCK
    words: part = part x^64 + the sum of T_j[nibble j of the word]
    (Horner's rule). A word costs one shift of the partial product and 16
    XORs of table entries, where 8-bit windows cost eight shifts and eight
    XORs, and a shift of a big int costs two to four XORs.
    """
    (t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14,
     t15) = (_window_table(a, 4, j) for j in range(0, 64, 4))
    nwords = (b.bit_length() + 63) // 64
    nibbles = _nibbles(b.to_bytes(8 * nwords, "little"))
    words = list(zip(*(nibbles[j::16] for j in range(16))))
    acc = 0
    for s in range(0, nwords, _WIDE_COMB_BLOCK):
        part = 0
        for (w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14,
             w15) in reversed(words[s:s + _WIDE_COMB_BLOCK]):
            part = (t0[w0] ^ t1[w1] ^ t2[w2] ^ t3[w3] ^ t4[w4] ^ t5[w5]
                    ^ t6[w6] ^ t7[w7] ^ t8[w8] ^ t9[w9] ^ t10[w10]
                    ^ t11[w11] ^ t12[w12] ^ t13[w13] ^ t14[w14] ^ t15[w15]
                    ^ (part << 64))
        acc ^= part << (64 * s)
    return acc


def _window_table(a: int, k: int, low: int = 0) -> list[int]:
    """a*w*x^low for every k-bit w, at index w; one XOR per entry."""
    table = [0]
    for j in range(low, low + k):
        aj = a << j
        table += [t ^ aj for t in table]
    return table


def _nibbles(raw: bytes) -> bytearray:
    """The nibbles of little-endian bytes, low nibble of each byte first."""
    out = bytearray(2 * len(raw))
    out[0::2] = raw.translate(_LOW_NIBBLE)
    out[1::2] = raw.translate(_HIGH_NIBBLE)
    return out


def clmul(a: BitPoly, b: BitPoly) -> BitPoly:
    """Carry-less (polynomial) product, of width ``a.nbits + b.nbits``.

    Evaluated by one windowed comb, :func:`_comb_int`, whatever the
    width; gate counts come from ``bench.clmul_cost``, whose Karatsuba
    backend only counts a split that is never evaluated.
    """
    return _bitpoly(_comb_int(a.value, b.value), a.nbits + b.nbits)


class FieldSpec(Record):
    """A binary field GF(2^lam) fixed by an irreducible modulus.

    Attributes
    ----------
    lam : int
        Extension degree.
    modulus : BitPoly
        Irreducible polynomial of degree lam, stored in lam+1 bits.
    reduction_exponents : tuple[int, ...]
        Exponents of the non-leading terms, descending (always ends in 0
        for the moduli produced here, since x never divides them).
    """

    __slots__ = _fields = ("lam", "modulus", "reduction_exponents")

    def __init__(self, lam: int, modulus: BitPoly,
                 reduction_exponents: tuple[int, ...]) -> None:
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "reduction_exponents", reduction_exponents)

    @property
    def weight(self) -> int:
        """Number of nonzero terms of the modulus."""
        return len(self.reduction_exponents) + 1

    @classmethod
    def from_modulus(cls, modulus: BitPoly) -> "FieldSpec":
        """The field of ``modulus``; raises unless it is irreducible."""
        lam = modulus.degree
        if lam < 1:
            raise PreconditionError("modulus must have degree >= 1")
        from .modulus import is_irreducible
        modulus = BitPoly(modulus.value, lam + 1)
        if not is_irreducible(modulus):
            raise PreconditionError(
                f"{modulus!r} is not irreducible over GF(2)")
        return cls(lam, modulus, _exponents_desc(modulus.value ^ (1 << lam)))


def reduce_mod(p: BitPoly, spec: FieldSpec) -> BitPoly:
    """Reduce modulo the field's irreducible polynomial to lam bits.

    Accepts widths up to 2*lam (a full product of two field elements).
    A sparse modulus is folded through its non-leading terms until the
    value fits, a dense one divided out (:func:`_square_mod` with no
    squaring); the gates are counted by ``bench.reduce_cost`` alone.
    """
    lam = spec.lam
    if p.nbits > 2 * lam:
        raise PreconditionError(
            f"reduction input of {p.nbits} bits exceeds 2*lam = {2 * lam}")
    return _bitpoly(_square_mod(p.value, 0, spec.modulus.value, lam,
                                _fold_exponents(spec.reduction_exponents)),
                    lam)


def gf_mul(a: BitPoly, b: BitPoly, spec: FieldSpec) -> BitPoly:
    """Field multiplication in GF(2^lam): carry-less multiply then reduce.

    Each operand may have any width, provided its degree is below lam; it
    is taken at width lam, so the product has 2*lam bits.
    """
    lam = spec.lam
    if a.value >> lam or b.value >> lam:
        raise PreconditionError("operands must have degree below lam")
    if a.nbits != lam:
        a = _bitpoly(a.value, lam)
    if b.nbits != lam:
        b = _bitpoly(b.value, lam)
    return reduce_mod(clmul(a, b), spec)


def lsb_truncate(p: BitPoly, m: int) -> BitPoly:
    """Keep the m low-order bits (coefficients of x^0 .. x^(m-1))."""
    if not 0 <= m <= p.nbits:
        raise PreconditionError(f"cannot take {m} low bits of {p.nbits}")
    return _bitpoly(p.value & ((1 << m) - 1), m)


# ---------------------------------------------------------------------------
# Remainders, squares and the modulus lookup
# ---------------------------------------------------------------------------

def _exponents_desc(v: int) -> tuple[int, ...]:
    """Exponents of the set coefficients of v, highest first."""
    out = []
    while v:
        e = v.bit_length() - 1
        out.append(e)
        v ^= 1 << e
    return tuple(out)


def _poly(lam: int, exps: tuple[int, ...]) -> int:
    """The mask of x^lam + sum(x^e for e in exps)."""
    return (1 << lam) | sum(1 << e for e in exps)


# Squaring a GF(2) polynomial just spaces its coefficients out: each nibble
# of v becomes one byte, its bits at 0, 2, 4 and 6. bytes.hex writes each
# byte of v as two digits, high nibble first, so this table, which maps
# each hex digit to its nibble spread out, turns the hex of v's big-endian
# bytes into the big-endian bytes of v^2.
_SPREAD_HEX = bytes.maketrans(
    b"0123456789abcdef",
    bytes(sum(((w >> i) & 1) << (2 * i) for i in range(4)) for w in range(16)))


def _fold_exponents(rest: tuple[int, ...]) -> tuple[int, ...] | None:
    """A modulus's non-leading exponents when it is sparse enough to reduce
    by folding through them, else None (reduce by long division)."""
    return rest if 0 < len(rest) <= 16 else None


def _square_mod(b: int, steps: int, f: int, lam: int,
                rest: tuple[int, ...] | None) -> int:
    """b^(2^steps) mod f, for f of degree lam; with steps = 0, b mod f.

    Each pass reduces b: a sparse f (``rest`` from :func:`_fold_exponents`)
    folds the bits at or above lam back through its non-leading terms until
    none is left, a dense f (``rest`` None) is divided out. The fold is one
    unrolled expression for a pentanomial with constant term 1, the shape
    of every table entry and of most candidates the scan walks, and a loop
    over the exponents otherwise. While steps remain, b is then squared in
    three C passes: ``bytes.hex`` doubles its big-endian bytes into hex
    digits, one ``translate`` spreads each digit's nibble over a byte, and
    ``int.from_bytes`` reads the square back; this is what makes
    degree-30000 tests practical.
    """
    nbytes = (lam + 7) // 8
    mask = (1 << lam) - 1
    pentanomial = rest is not None and len(rest) == 4 and rest[-1] == 0
    if pentanomial:
        e1, e2, e3, _ = rest
    while True:
        if rest is None:
            da = b.bit_length()
            while da > lam:
                b ^= f << (da - lam - 1)
                da = b.bit_length()
        elif pentanomial:
            hi = b >> lam
            while hi:
                b = (b & mask) ^ hi ^ (hi << e3) ^ (hi << e2) ^ (hi << e1)
                hi = b >> lam
        else:
            hi = b >> lam
            while hi:
                b &= mask
                for e in rest:
                    b ^= hi << e
                hi = b >> lam
        if not steps:
            return b
        steps -= 1
        b = int.from_bytes(
            b.to_bytes(nbytes, "big").hex().encode().translate(_SPREAD_HEX),
            "big")


# Moduli whose live search takes seconds to hours: lexicographically
# smallest irreducible of minimal weight at each degree, found by the same
# scan find_irreducible performs (trinomials in ascending middle exponent,
# then pentanomials in ascending (a, b, c)); each row is what
# modulus.scan returns. Every entry is re-verified for irreducibility by
# the tests and by Berlekamp's count in ``verify gf2``, and the tests
# re-scan those up to 4096; the table only skips the scan.
_MODULUS_TABLE: dict[int, tuple[int, ...]] = {
    1037: (12, 7, 2, 0),
    2048: (19, 14, 13, 0),
    2123: (14, 11, 3, 0),
    4096: (27, 15, 1, 0),
    16397: (32, 21, 11, 0),
    32768: (71, 4, 1, 0),
}


@lru_cache(maxsize=None)
def find_irreducible(lam: int) -> FieldSpec:
    """Lexicographically smallest low-weight irreducible of degree lam.

    Scans trinomials x^lam + x^m + 1 for m = 1 .. lam-1, then pentanomials
    x^lam + x^a + x^b + x^c + 1 over ascending (a, b, c), returning the
    first irreducible found, and raises PreconditionError if there is
    none (no such degree is known). The constant term is always 1 (a
    polynomial divisible by x is never irreducible for lam >= 2), which
    for lam = 1 pins the choice to x + 1. How the scan rejects candidates
    cheaply without changing its answer is described in
    :func:`entroseal.modulus.scan`.

    Results are cached per degree (two threads may both compute a miss;
    the cache stays consistent); a handful of large degrees are served
    from a precomputed table produced by this same scan. A degree that is
    not an int of at least 1, or is a bool, raises PreconditionError; a
    refused call caches nothing.
    """
    if isinstance(lam, bool) or not isinstance(lam, int):
        raise PreconditionError(f"degree must be an int, got {lam!r}")
    if lam < 1:
        raise PreconditionError("degree must be >= 1")
    rest = _MODULUS_TABLE.get(lam)
    if rest is None:  # a table miss: only now load the search
        from .modulus import scan
        rest = scan(lam)
    return FieldSpec(lam, BitPoly(_poly(lam, rest), lam + 1), rest)
