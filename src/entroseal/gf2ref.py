"""Bit-serial reference implementations with literal gate simulation.

Everything here trades speed for transparency: products are computed one
gate at a time into explicit wire slots, so the returned counts are the
ground truth the fast kernels and analytic recurrences in
:mod:`entroseal.gf2` must reproduce. A write into an empty output slot is
a wire, not a gate; only a write into an occupied slot costs an XOR.
The one exception, :func:`clmul_shift_xor`, is an uncounted product for
checking values at widths where the bit-serial kernels are too slow.
"""

from __future__ import annotations

__all__ = [
    "clmul_shift_xor",
    "clmul_schoolbook_counted",
    "clmul_karatsuba_counted",
    "polydivmod",
    "reduce_by_division",
    "irreducible_by_trial_division",
    "factor_count_berlekamp",
    "smallest_factor_degree",
    "smallest_irreducible_lowweight_exhaustive",
]


class _Wires:
    """Fixed-width output slots where the first write to a slot is free."""

    def __init__(self, width: int):
        self.slots: list[int | None] = [None] * max(width, 1)
        self.xors = 0

    def add(self, pos: int, bit: int) -> None:
        if self.slots[pos] is None:
            self.slots[pos] = bit
        else:
            self.slots[pos] ^= bit
            self.xors += 1

    def value(self) -> int:
        v = 0
        for i, b in enumerate(self.slots):
            if b:
                v |= 1 << i
        return v


def clmul_shift_xor(a: int, b: int) -> int:
    """Carry-less product of two coefficient masks (shift-and-xor kernel)."""
    if a.bit_length() < b.bit_length():
        a, b = b, a
    acc = 0
    while b:
        low = b & -b
        acc ^= a << (low.bit_length() - 1)
        b ^= low
    return acc


def clmul_schoolbook_counted(a: int, na: int, b: int, nb: int) -> tuple[int, int, int]:
    """Schoolbook carry-less multiply, one AND per coefficient pair.

    Returns (product, ands, xors). Zero-width operands produce (0, 0, 0).
    """
    if na == 0 or nb == 0:
        return 0, 0, 0
    out = _Wires(na + nb - 1)
    ands = 0
    for i in range(na):
        ai = (a >> i) & 1
        for j in range(nb):
            bj = (b >> j) & 1
            ands += 1
            out.add(i + j, ai & bj)
    return out.value(), ands, out.xors


def clmul_karatsuba_counted(a: int, b: int, nbits: int) -> tuple[int, int, int]:
    """Karatsuba on equal widths, recursing all the way to single bits.

    Split at m = ceil(nbits/2) with the wider piece low. Forming each
    folded operand costs floor(nbits/2) XORs; merging the middle product
    costs one XOR per slot that two partial products both cover.
    """
    if nbits == 0:
        return 0, 0, 0
    if nbits == 1:
        return a & b, 1, 0
    m = (nbits + 1) // 2
    h = nbits - m
    mask = (1 << m) - 1
    a0, a1 = a & mask, a >> m
    b0, b1 = b & mask, b >> m
    sa = a0 ^ a1  # a1 has h <= m bits: h XOR gates, the rest are wires
    sb = b0 ^ b1
    p0, and0, xor0 = clmul_karatsuba_counted(a0, b0, m)
    p1, and1, xor1 = clmul_karatsuba_counted(a1, b1, h)
    pm, andm, xorm = clmul_karatsuba_counted(sa, sb, m)
    fold_xors = 2 * h
    mid = pm ^ p0 ^ p1
    mid_xors = (2 * m - 1) + (2 * h - 1)
    out = _Wires(2 * nbits - 1)
    for i in range(2 * m - 1):
        out.add(i, (p0 >> i) & 1)
    for i in range(2 * m - 1):
        out.add(m + i, (mid >> i) & 1)
    for i in range(2 * h - 1):
        out.add(2 * m + i, (p1 >> i) & 1)
    ands = and0 + and1 + andm
    xors = xor0 + xor1 + xorm + fold_xors + mid_xors + out.xors
    return out.value(), ands, xors


def polydivmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of GF(2) polynomial long division."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db:
        shift = a.bit_length() - 1 - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def reduce_by_division(p: int, modulus: int) -> int:
    """Remainder oracle for the fold-based reducer."""
    return polydivmod(p, modulus)[1]


def irreducible_by_trial_division(f: int) -> bool:
    """Irreducibility by dividing against every mask up to half the degree."""
    d = f.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    for g in range(2, 1 << (d // 2 + 1)):
        if g.bit_length() - 1 >= 1 and polydivmod(f, g)[1] == 0:
            return False
    return True


def factor_count_berlekamp(f: int) -> int | None:
    """Number of irreducible factors of a squarefree f, else None.

    None unless gcd(f, f') = 1. Otherwise Berlekamp's count (Bell Syst.
    Tech. J. 46, 1967): the nullity over GF(2) of Q - I, whose row i is
    x^(2i) mod f plus x^i, for i below the degree of f. Shares no code
    with the Frobenius walk in :mod:`entroseal.gf2`.
    """
    d = f.bit_length() - 1
    if d < 1:
        raise ValueError("degree must be >= 1")
    odd = int("01" * (d // 2 + 1), 2)  # the coefficients of odd exponents
    a, b = f, (f >> 1) & odd  # f' keeps them, one place down
    while b:
        a, b = b, polydivmod(a, b)[1]
    if a != 1:
        return None
    basis: dict[int, int] = {}  # reduced rows by their leading bit
    square = 1  # x^(2i) mod f
    for i in range(d):
        row = square ^ (1 << i)
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
        square = polydivmod(square << 2, f)[1]
    return d - len(basis)


def smallest_factor_degree(f: int, up_to: int) -> int | None:
    """Least degree e <= up_to of an irreducible factor of f, else None.

    For f of degree >= 2: x^(2^e) - x is the product of the irreducibles
    of degree dividing e, so the least e with gcd(f, x^(2^e) - x) != 1 is
    the least factor degree. One square by :func:`clmul_shift_xor`, one
    long division and one Euclid per e; shares no code with the
    Frobenius walk in :mod:`entroseal.gf2`.
    """
    b = 2  # x^(2^e) mod f
    for e in range(1, up_to + 1):
        b = polydivmod(clmul_shift_xor(b, b), f)[1]
        a, r = f, b ^ 2
        while r:
            a, r = r, polydivmod(a, r)[1]
        if a != 1:
            return e
    return None


def smallest_irreducible_lowweight_exhaustive(lam: int) -> int:
    """First irreducible of degree lam in weight-then-lexicographic order.

    Trinomials x^lam + x^m + 1 by ascending m, then pentanomials
    x^lam + x^a + x^b + x^c + 1 by ascending (a, b, c), then all odd
    masks ascending. Mirrors the production scan with trial division as
    the only primality check, so it is usable as an oracle up to degrees
    around 24. Only this oracle keeps the tail of odd masks: the
    production scan raises once the pentanomials run out, which no known
    degree reaches.
    """
    if lam < 1:
        raise ValueError("degree must be >= 1")
    if lam == 1:
        return 0b11
    base = (1 << lam) | 1
    for m in range(1, lam):
        f = base | (1 << m)
        if irreducible_by_trial_division(f):
            return f
    for a in range(3, lam):
        for b in range(2, a):
            for c in range(1, b):
                f = base | (1 << a) | (1 << b) | (1 << c)
                if irreducible_by_trial_division(f):
                    return f
    for v in range(base, 1 << (lam + 1), 2):
        if irreducible_by_trial_division(v):
            return v
    raise ValueError(f"no irreducible of degree {lam}")
