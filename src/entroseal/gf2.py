"""Polynomials over GF(2) and binary-field arithmetic with exact gate counts.

A polynomial a(x) = sum a_i x^i with a_i in {0,1} is stored as a Python
integer whose bit i is the coefficient a_i, together with an explicit
bit-length so that fixed-width strings and polynomials share one type.
Computing and counting are separate: :func:`clmul`, :func:`reduce_mod`
and :func:`gf_mul` return only the exact product, while :func:`clmul_cost`
and :func:`reduce_cost` count the two-input AND and XOR gates a hardware
realization of the chosen :class:`Backend` would use. Every product is
evaluated by one windowed comb (Horner's rule over a table of multiples
of the wider operand), with no Karatsuba split. A comb over a narrower
operand of more than about 3.5 kbit reads it 64 bits a step through 16
nibble tables, so that each step costs one big-int shift, not eight
(Lopez & Dahab, INDOCRYPT 2000). Karatsuba is only a count model
(``Backend.KARATSUBA``). The counting rules are mirrored bit-serially in
:mod:`entroseal.gf2ref` and the two are tested against each other.

One loop, :func:`_square_mod`, computes every remainder and every square
modulo f: :func:`reduce_mod` and every step and product of the Frobenius
walk call it. It folds a sparse f through its non-leading terms until the
value fits and divides a dense one out; only :func:`reduce_cost` knows
the fixed round structure of the counted network.

:func:`find_irreducible` picks each field's modulus on one path: a table
of precomputed moduli or else a scan, cached per degree by ``lru_cache``.
Both give a modulus as its non-leading exponents, the table's row shape,
from which one constructor builds the :class:`FieldSpec`. The scan
carries each trinomial or pentanomial candidate as those exponents and
raises if none is irreducible. It takes four steps per candidate: it
drops the trinomials Swan's theorem proves reducible, from their
exponents alone; it sieves out factors of degree <= 10; it drops the
pentanomials whose discriminant mod 8 shows a repeated factor or an even
number of factors (Stickelberger's theorem, undecided when the degree
and the second exponent are both even); and it walks the Frobenius map
once, :func:`_frobenius_walk`: Rabin's test, with gcds at steps 24 and
48 that reject factors of degree up to 48 early (from degree 240 up).
The first three only skip reducible candidates, so the modulus is
Rabin's verdict alone, and :func:`is_irreducible` takes the same walk.
Only the standard library is used: squares are spread a byte at a time
through ``bytes.translate`` tables into one reused buffer, and the
sieve's tables, found by Eratosthenes' sieve over GF(2)[x], are 16-bit
``array`` views.
"""

from __future__ import annotations

import enum
import itertools
from array import array
from functools import lru_cache

from ._record import Record
from .errors import ConfigurationError, LengthError, PreconditionError

__all__ = [
    "BitPoly",
    "OpCount",
    "Backend",
    "FieldSpec",
    "clmul",
    "clmul_cost",
    "reduce_mod",
    "reduce_cost",
    "gf_mul",
    "lsb_truncate",
    "is_irreducible",
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
        return BitPoly(self.value ^ other.value, self.nbits)

    def concat(self, other: "BitPoly") -> "BitPoly":
        """Concatenate, with ``self`` occupying the low-order bits."""
        return BitPoly(self.value | (other.value << self.nbits),
                       self.nbits + other.nbits)

    def resize(self, nbits: int) -> "BitPoly":
        """Zero-extend or (losslessly) narrow to ``nbits`` bits."""
        if nbits < self.value.bit_length():
            raise LengthError(
                f"cannot narrow to {nbits} bits without dropping set bits"
            )
        return BitPoly(self.value, nbits)

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
        return cls(value, nbits)

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


@lru_cache(maxsize=None)
def _kara_cost(nbits: int) -> OpCount:
    """Gates for Karatsuba at width nbits, split into ceil(v/2) + floor(v/2).

    ANDs: A(1) = 1 and A(v) = 2 A(ceil(v/2)) + A(floor(v/2)). XORs:
    X(1) = 0 and X(v) = 2 X(ceil(v/2)) + X(floor(v/2)) + 4v - 4: splitting
    costs two half-width additions (2 ceil(v/2) <= v+1, counted exactly
    below), and recombining xors the middle product into the overlap.
    """
    if nbits <= 1:
        return OpCount(nbits, 0)
    hi = _kara_cost((nbits + 1) // 2)
    lo = _kara_cost(nbits // 2)
    return OpCount(2 * hi.ands + lo.ands,
                   2 * hi.xors + lo.xors + 4 * nbits - 4)


def clmul_cost(na: int, nb: int, backend: Backend = Backend.SCHOOLBOOK) -> OpCount:
    """Gate count for a carry-less multiply of widths na x nb.

    Schoolbook uses na*nb ANDs and na*nb - (na + nb - 1) XORs: each output
    bit is first written, then folded, so one XOR per partial product
    beyond the first landing in each of the na+nb-1 output columns.
    Karatsuba pads to the larger width and follows the recurrence exactly.
    """
    if na < 0 or nb < 0:
        raise PreconditionError("widths must be nonnegative")
    if na == 0 or nb == 0:
        return OpCount(0, 0)
    if backend is Backend.SCHOOLBOOK:
        return OpCount(na * nb, na * nb - (na + nb - 1))
    if backend is Backend.KARATSUBA:
        return _kara_cost(max(na, nb))
    raise ConfigurationError(f"unknown backend {backend!r}")


def clmul(a: BitPoly, b: BitPoly) -> BitPoly:
    """Carry-less (polynomial) product, of width ``a.nbits + b.nbits``.

    Evaluated by one windowed comb, :func:`_comb_int`, whatever the
    width; gate counts come from :func:`clmul_cost`, whose Karatsuba
    backend only counts a split that is never evaluated.
    """
    return BitPoly(_comb_int(a.value, b.value), a.nbits + b.nbits)


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
        modulus = BitPoly(modulus.value, lam + 1)
        if not is_irreducible(modulus):
            raise PreconditionError(
                f"{modulus!r} is not irreducible over GF(2)")
        return cls(lam, modulus, _exponents_desc(modulus.value ^ (1 << lam)))


def reduce_cost(width: int, spec: FieldSpec) -> OpCount:
    """XOR count for reducing a width-bit polynomial modulo the field spec.

    Folding the part above degree lam-1 back down costs (weight - 1) XORs
    per excess bit, applied obliviously (data-independent), possibly over
    several rounds when a fold re-creates high bits.
    """
    lam = spec.lam
    if width > 2 * lam:
        raise PreconditionError(
            f"reduction input of {width} bits exceeds 2*lam = {2 * lam}"
        )
    top = spec.reduction_exponents[0] if spec.reduction_exponents else 0
    xors = 0
    cur = width
    while cur > lam:
        h = cur - lam
        xors += (spec.weight - 1) * h
        cur = lam if h + top <= lam else h + top
    return OpCount(0, xors)


def reduce_mod(p: BitPoly, spec: FieldSpec) -> BitPoly:
    """Reduce modulo the field's irreducible polynomial to lam bits.

    Accepts widths up to 2*lam (a full product of two field elements).
    A sparse modulus is folded through its non-leading terms until the
    value fits, a dense one divided out (:func:`_square_mod` with no
    squaring); the gates are counted by :func:`reduce_cost` alone.
    """
    lam = spec.lam
    if p.nbits > 2 * lam:
        raise PreconditionError(
            f"reduction input of {p.nbits} bits exceeds 2*lam = {2 * lam}")
    val = _square_mod(p.value, 0, spec.modulus.value, lam,
                      _fold_exponents(spec.reduction_exponents))
    return BitPoly(val, lam)


def gf_mul(a: BitPoly, b: BitPoly, spec: FieldSpec) -> BitPoly:
    """Field multiplication in GF(2^lam): carry-less multiply then reduce."""
    if a.degree >= spec.lam or b.degree >= spec.lam:
        raise PreconditionError("operands must have degree below lam")
    aw = a if a.nbits == spec.lam else a.resize(spec.lam)
    bw = b if b.nbits == spec.lam else b.resize(spec.lam)
    return reduce_mod(clmul(aw, bw), spec)


def lsb_truncate(p: BitPoly, m: int) -> BitPoly:
    """Keep the m low-order bits (coefficients of x^0 .. x^(m-1))."""
    if not 0 <= m <= p.nbits:
        raise PreconditionError(f"cannot take {m} low bits of {p.nbits}")
    return BitPoly(p.value & ((1 << m) - 1), m)


# ---------------------------------------------------------------------------
# Irreducibility testing and the modulus lookup
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


def _polygcd_int(a: int, b: int) -> int:
    """Greatest common divisor of two coefficient masks (Euclid, with each
    remainder taken inline by long division)."""
    while b:
        db = b.bit_length()
        da = a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b = b, a
    return a


# Squaring a GF(2) polynomial just spaces its coefficients out: byte w of v
# becomes two bytes, its low and its high nibble with a zero bit after
# each bit.
_SPREAD_LOW = bytes(sum(((w >> i) & 1) << (2 * i) for i in range(4))
                    for w in range(256))
_SPREAD_HIGH = bytes(_SPREAD_LOW[w >> 4] for w in range(256))


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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
    over the exponents otherwise. While steps remain, b is then squared
    into one reused buffer, each byte spread by the two nibble tables; this
    is what makes degree-30000 tests practical.
    """
    nbytes = (lam + 7) // 8
    out = bytearray(2 * nbytes) if steps else None  # reduce_mod squares none
    low, high = _SPREAD_LOW, _SPREAD_HIGH
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
        raw = b.to_bytes(nbytes, "little")
        out[0::2] = raw.translate(low)
        out[1::2] = raw.translate(high)
        b = int.from_bytes(out, "little")


# The Frobenius walk's early checkpoints (Ben-Or): a gcd at k = 24 over
# the stops in (12, 24] and one at k = D = 48 over (24, 48], so a factor
# of degree e <= D is caught after 24 squares if e <= 24, else after 48.
# In an interleaved sweep (nine rounds, sieve built; scans of the 20
# degrees 171 + 48i and 12 more from 251 to 2011), the scans took 532 ms
# with gcds at (24, 48), 535 at (28, 56), 546 at (20, 40), 549 at 48
# alone, 560 at 32, 575 at (24, 48, 96) or (16, 32), 581 at (24, 64) or
# (16, 48) and 617 at 64. The checkpoints start at degree
# _CHECKPOINT_FROM, where they begin to pay in the sieved scan: it took
# 8-17% longer with them from 171 to 239 (up to 68% lower down), as long
# within 5% from 240 to 329, and 8-19% less from 330 to 639. A walk that
# passes them pays 36 products, where one gcd at 48 alone pays 24 and
# none pays none: is_irreducible on an irreducible input of degree 603
# took 954-1013 us against 870-880 with the gcd at 48 alone and 579 with
# none, and at 2123 4.58-4.71 ms against 4.41-4.49 and 3.5.
_PREFILTER_DEGREE = 48
_CHECKPOINTS = (24, _PREFILTER_DEGREE)
_CHECKPOINT_FROM = 240


@lru_cache(maxsize=64)
def _walk_stops(lam: int) -> tuple[tuple[int, bool], ...]:
    """The Frobenius walk's stops at degree lam, ascending, each with
    whether a checkpoint gcd follows it: Rabin's k = lam/p for each prime
    p dividing lam and, from degree _CHECKPOINT_FROM up, every k in
    (12, 48] with a gcd at k = 24 and at k = 48. Worked out once per
    degree, not once per candidate."""
    stops = {lam // p for p in _prime_factors(lam)}
    checks = _CHECKPOINTS if lam >= _CHECKPOINT_FROM else ()
    if checks:
        stops.update(range(checks[0] // 2 + 1, checks[-1] + 1))
    return tuple((k, k in checks) for k in sorted(stops))


def _frobenius_walk(f: int, lam: int) -> int:
    """0 if f, of degree lam, is irreducible, else the step that proved
    it reducible: a checkpoint (24 or 48) or lam at the end.

    One walk computes b_k = x^(2^k) mod f for k up to lam and multiplies
    b_k - x into one product mod f at the stops of :func:`_walk_stops`.
    Rabin's test: f is irreducible exactly when b_lam = x and the product
    is coprime to f; a non-squarefree f fails one of the two. Each
    checkpoint, a gcd of f with the product since the last one (Ben-Or),
    rejects any f with a factor of degree e in its range: the one at 24
    every e <= 24, which divides some k in (12, 24], the one at 48 every
    e in (24, 48]. An irreducible f of degree lam >= _CHECKPOINT_FROM has
    no such factor. The first product after the start or a checkpoint is
    b_k - x itself, already reduced.
    """
    rest = _fold_exponents(_exponents_desc(f ^ (1 << lam)))
    x = _square_mod(2, 0, f, lam, rest)  # x, reduced (x + 1 at lam = 1)
    b, done, prod = x, 0, 1
    for k, check in _walk_stops(lam):
        b = _square_mod(b, k - done, f, lam, rest)
        done = k
        if prod == 1:  # b_k - x is reduced already: no product by 1
            prod = b ^ x
        else:
            prod = _square_mod(_comb_int(prod, b ^ x), 0, f, lam, rest)
        if check:
            if _polygcd_int(f, prod) != 1:
                return k
            prod = 1  # coprime so far: only later stops can share a factor
    b = _square_mod(b, lam - done, f, lam, rest)
    return 0 if b == x and _polygcd_int(f, prod) == 1 else lam


def is_irreducible(p: BitPoly) -> bool:
    """Whether p is irreducible over GF(2). Degree must be >= 1."""
    d = p.degree
    if d < 1:
        return False
    if d == 1:
        return True
    if p.value & 1 == 0:  # divisible by x
        return False
    if bin(p.value).count("1") % 2 == 0:  # divisible by x + 1
        return False
    # A fold clears only d - top bits a round (top the second exponent), so
    # a top-heavy p folds each square many times. Its reciprocal
    # x^d p(1/x), of degree d as p(0) = 1, is irreducible exactly when p is;
    # the smaller of the two has the lower second exponent.
    f = min(p.value, int(f"{p.value:b}"[::-1], 2))
    return _frobenius_walk(f, d) == 0


# Deeper tables mostly reject candidates that the walk's gcds at steps 24
# and 48 would reject soon after: scanning the 20 degrees 171 + 48i in a
# fresh process, tables included, took 220, 205, 230 and 303 ms at depths
# 9, 10, 11 and 12 (medians of seven interleaved runs; the tables alone
# took 2, 6, 22 and 70 ms), and 193 against 198 ms at 9 and 10 in eight
# more.
_SIEVE_DEGREE = 10


def _has_small_factor(exps: tuple[int, ...],
                      sieve: list[tuple[int, memoryview, int]]) -> bool:
    """Whether an irreducible of degree <= _SIEVE_DEGREE divides
    x^lam + sum(x^e for e in exps), where exps ends in 0.

    For each small irreducible g, the powers x^e mod g cycle with period
    ord(x) dividing 2^deg(g) - 1, so the residue of a sparse candidate mod
    g is a few table lookups and XORs; a zero residue means g divides it.
    ``sieve`` holds (period, x^e mod g for e < period, x^lam + 1 mod g)
    per g: the tables of :func:`_sieve_cycles` and the scan's per-lam base.
    """
    mid = exps[:-1]
    for period, cyc, r in sieve:
        for e in mid:
            r ^= cyc[e % period]
        if r == 0:
            return True
    return False


@lru_cache(maxsize=1)
def _sieve_cycles() -> tuple[tuple[int, memoryview], ...]:
    """(period, x^e mod g for e < period) per sieve irreducible g.

    The g are the irreducibles of degree 1 .. _SIEVE_DEGREE except x, in
    ascending order, found by Eratosthenes' sieve over GF(2)[x]: an odd g
    that no smaller one has marked is irreducible, and marks each odd
    multiple g*q up to degree _SIEVE_DEGREE. The q run in Gray-code order,
    so each product is the last one XOR one shifted g. Each table is one
    walk x^e -> x^(e+1) mod g, through a table of x*r mod g for every r,
    until it returns to 1, so its length is the order of x mod g.
    Independent of lam, so built once per process and shared as read-only
    views of 16-bit arrays (225 tables, 105,309 entries).
    """
    top = 1 << (_SIEVE_DEGREE + 1)
    composite = bytearray(top)
    out = []
    for g in range(3, top, 2):
        if composite[g]:
            continue
        d = g.bit_length() - 1
        # the odd q of degree <= _SIEVE_DEGREE - d from q = 1: step j
        # flips bit 1 + (the trailing zeros of j) of q
        prod = g
        for j in range(1, top >> (d + 1)):
            prod ^= g << (j & -j).bit_length()
            composite[prod] = 1
        # x*r mod g for every r of degree < d: 2r, minus g from x^(d-1) up
        step = [*range(0, 1 << d, 2),
                *(r ^ g for r in range(1 << d, 2 << d, 2))]
        walk, r = [1], step[1]
        while r != 1:
            walk.append(r)
            r = step[r]
        out.append((len(walk), memoryview(array("H", walk)).toreadonly()))
    return tuple(out)


# Moduli whose live search takes seconds to hours: lexicographically
# smallest irreducible of minimal weight at each degree, found by the same
# scan find_irreducible performs (trinomials in ascending middle exponent,
# then pentanomials in ascending (a, b, c)); each row is what
# _scan_for_irreducible returns. Every entry is re-verified for
# irreducibility by the tests and by Berlekamp's count in ``verify gf2``,
# and the tests re-scan those up to 4096; the table only skips the scan.
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
    :func:`_scan_for_irreducible`.

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
    rest = _MODULUS_TABLE.get(lam) or _scan_for_irreducible(lam)
    return FieldSpec(lam, BitPoly(_poly(lam, rest), lam + 1), rest)


def _swan_reducible(n: int, k: int) -> bool:
    """Whether Swan's theorem proves x^n + x^k + 1 (0 < k < n) reducible.

    Swan (Pacific J. Math. 12, 1962) gives the parity of the number of
    irreducible factors from n and k alone; an even number means at least
    two. With n and k both even the trinomial is a square. Otherwise, with
    k replaced by n - k when both are odd, the count is even when

    (a) n is even, n != 2k and nk/2 = 0 or 1 (mod 4);
    (b) n is odd, k does not divide 2n and n = 3 or 5 (mod 8);
    (c) n is odd, k divides 2n and n = 1 or 7 (mod 8).

    False proves nothing: an odd count may still be three or more factors.
    This covers every trinomial of degree divisible by 8.
    """
    if n % 2 == 0 and k % 2 == 0:
        return True
    if n % 2 and k % 2:
        k = n - k
    if n % 2 == 0:
        return n != 2 * k and (n * k // 2) % 4 in (0, 1)
    if (2 * n) % k:
        return n % 8 in (3, 5)
    return n % 8 in (1, 7)


def _stickelberger_reducible(n: int, a: int, b: int, c: int) -> bool | None:
    """Whether Stickelberger's theorem proves x^n + x^a + x^b + x^c + 1
    (n > a > b > c > 0) reducible; None when it cannot tell.

    For f over GF(2) of degree n with a monic lift F to Z[x], f has a
    repeated factor exactly when disc(F) is even; otherwise disc(F) = 1
    (mod 8) exactly when f's number of irreducible factors is = n (mod 2)
    (Stickelberger 1897, as used by Swan, Pacific J. Math. 12, 1962). True
    means a repeated factor or an even number of factors, False an odd
    number (an irreducible f is always False).

    x F'(x) = G(x) = (a-n) x^a + (b-n) x^b + (c-n) x^c - n (mod F), so
    disc(F) = (-1)^(n(n-1)/2 + n) Res(F, G), a norm of degree a over Z/8
    once G has a unit leading coefficient lc: directly when a - n is odd,
    disc = (-1)^(n(n-1)/2 + n + na) lc^n det(F mod g) with g = G/lc; for
    odd n, through the reciprocals x^a G(1/x) (lc = -n) and x^n F(1/x),
    with sign (-1)^(n(n-1)/2 + n). With n and a both even neither applies.

    The det is that of multiplication by F mod g on (Z/8)[x]/(g), with
    x^n (or x^(n-a)) mod g by one square-and-multiply and the other terms
    by short shifts, eliminated mod 8 on odd pivots; no odd pivot means an
    even det. Polynomials over Z/8 are Python ints with one slot per
    coefficient, wide enough that a product's sums never carry out of it.
    """
    direct = (n - a) % 2 == 1
    if direct:
        lc, tail = a - n, ((b, b - n), (c, c - n), (0, -n))
    elif n % 2:
        lc, tail = -n, ((a - b, b - n), (a - c, c - n), (0, a - n))
    else:
        return None
    slot = 8 * -(-(64 * a).bit_length() // 8)
    step = slot // 8
    sevens = int.from_bytes(b"\x07".ljust(step, b"\0") * (2 * a), "little")
    low = (1 << (slot * a)) - 1
    # table[j] = x^(a+j) mod g up to x^(2a-2), the top of a product of two
    # remainders: x^a = -lc^-1 (G - lc x^a), and lc^-1 = lc mod 8 (lc odd)
    top = sum((-lc * t % 8) << (slot * e) for e, t in tail)
    table = [top]
    for _ in range(a - 2):
        r = table[-1] << slot
        table.append(((r & low) + (r >> (slot * a)) * top) & sevens)

    def reduce(p: int) -> int:
        p &= sevens
        hi = p >> (slot * a)
        if hi:
            p &= low
            for t, r in zip(hi.to_bytes(step * (a - 1), "little")[::step],
                            table):
                if t:
                    p += t * r
            p &= sevens
        return p

    def power(e: int) -> int:  # x^e mod g
        s = max(e.bit_length() - a.bit_length() + 1, 0)
        p = 1 << (slot * (e >> s))
        for i in reversed(range(s)):
            p = reduce(p * p)
            if e >> i & 1:
                p = reduce(p << slot)
        return p

    if direct:  # F = x^n + x^a + x^b + x^c + 1
        h = power(n) + top + (1 << (slot * b)) + (1 << (slot * c)) + 1
    else:  # x^n F(1/x) = x^n + x^(n-c) + x^(n-b) + x^(n-a) + 1
        p = power(n - a)
        h = 1 + p
        for s in (a - b, b - c, c):
            p = reduce(p << (slot * s))
            h += p
    rows = [h & sevens]
    for _ in range(a - 1):
        rows.append(reduce(rows[-1] << slot))
    det = 1
    for j in range(a):
        shift = slot * j
        for k, r in enumerate(rows):
            if r >> shift & 1:
                break
        else:
            return True  # det even: a repeated factor
        pivot = rows.pop(k)
        u = pivot >> shift & 7
        det *= -u if k % 2 else u
        for i, r in enumerate(rows):
            e = r >> shift & 7
            if e:  # r - (e/u) pivot, and 1/u = u mod 8
                rows[i] = (r + (-e * u % 8) * pivot) & sevens
    sign = (n * (n - 1) // 2 + n + (n * a if direct else 0)) % 2
    disc = (-1) ** sign * lc ** (n % 2) * det
    return disc % 8 != (1 if n % 2 else 5)


def _scan_for_irreducible(lam: int) -> tuple[int, ...]:
    """Non-leading exponents of the first irreducible of degree lam in
    find_irreducible's scan order, descending: a _MODULUS_TABLE row.

    Each candidate is carried as its exponents, (m, 0) or (a, b, c, 0),
    and meets up to four tests, cheapest first; only one that reaches the
    walk is built as a mask, and the first one the walk finds irreducible
    is returned. The first three only ever reject reducible candidates,
    so they change the running time, never the answer:

    1. for a trinomial, Swan's rule (:func:`_swan_reducible`, from the
       exponents alone; it drops about five eighths of them over all
       degrees, nearly all at degrees 3 or 5 mod 8 and every one when 8
       divides lam);
    2. the small-factor sieve (:func:`_has_small_factor`: no factor of
       degree <= 10);
    3. for a pentanomial x^lam + x^a + ..., the parity test
       (:func:`_stickelberger_reducible`: Stickelberger's theorem, which
       underlies Swan's rule, read from the discriminant mod 8 through a
       norm of degree a); it drops a candidate with a repeated factor or
       an even number of factors, and decides nothing when lam and a are
       both even;
    4. the Frobenius walk (:func:`_frobenius_walk`), Rabin's test and the
       only judge of irreducibility; from degree 240 up it rejects a
       candidate with a factor of degree <= 24 after 24 squares and one
       with a factor of degree <= D = 48 after 48.

    Trinomials stop at m = lam/2: x^lam + x^m + 1 is irreducible exactly
    when its reciprocal x^lam + x^(lam-m) + 1 is, and that one came first.
    At lam = 1 the answer is x + 1, (0,). A degree with no irreducible
    trinomial or pentanomial raises PreconditionError; none is known
    (Seroussi's table, HP Labs HPL-98-135, 1998, has one for every degree
    up to 10,000).
    """
    if lam == 1:
        return (0,)
    # At lam <= _SIEVE_DEGREE the sieve's tables would contain the
    # candidate itself, so the same scan runs without it.
    sieve = ([(period, cyc, cyc[lam % period] ^ 1)
              for period, cyc in _sieve_cycles()]
             if lam > _SIEVE_DEGREE else [])
    trinomials = ((m, 0) for m in range(1, lam // 2 + 1)
                  if not _swan_reducible(lam, m))
    pentanomials = ((a, b, c, 0)
                    for a in range(3, lam)
                    for b in range(2, a)
                    for c in range(1, b))
    for exps in itertools.chain(trinomials, pentanomials):
        if _has_small_factor(exps, sieve):
            continue
        if len(exps) == 4 and _stickelberger_reducible(lam, *exps[:3]):
            continue
        if _frobenius_walk(_poly(lam, exps), lam) == 0:
            return exps
    raise PreconditionError(
        f"no irreducible trinomial or pentanomial of degree {lam}")
