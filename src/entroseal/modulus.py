"""The modulus search: which trinomial or pentanomial fixes GF(2^lam).

:func:`entroseal.gf2.find_irreducible` serves a table degree itself and
calls :func:`scan` only on a table miss, importing this module then, so
a table hit never loads it; :meth:`entroseal.gf2.FieldSpec.from_modulus`
imports :func:`is_irreducible` the same way. The arithmetic is
:mod:`entroseal.gf2`'s: every square and remainder of the walk is its
``_square_mod``, every product its comb.

The scan carries each trinomial or pentanomial candidate as its
non-leading exponents, the table's row shape, and raises if none is
irreducible. It takes four steps per candidate: it drops the trinomials
Swan's theorem proves reducible, from their exponents alone; it sieves
out factors of degree <= 10; it drops the pentanomials whose
discriminant mod 8 shows a repeated factor or an even number of factors
(Stickelberger's theorem, undecided when the degree and the second
exponent are both even); and it walks the Frobenius map once,
:func:`_frobenius_walk`: Rabin's test, with gcds at steps 24 and 48 that
reject factors of degree up to 48 early (from degree 240 up). The first
three only skip reducible candidates, so the modulus is Rabin's verdict
alone, and :func:`is_irreducible` takes the same walk. Only the standard
library is used. The sieve holds a candidate's remainders mod all 225
irreducibles of degree <= 10, found by Eratosthenes' sieve over GF(2)[x],
as one int with a 16-bit slot each, and a few whole-int operations tell
whether any is 0. Every term's remainders come from one table of x^e for
e < 2^10 - 1: x^(2^d - 1) = 1 mod each such g of degree d (Fermat's
little theorem in GF(2^d)), so a larger e reads entry e mod (2^d - 1)
for the slots of degree d. The slot layout and that table are built
when the module is imported, since every scan needs them.
"""

from __future__ import annotations

import itertools
from array import array
from functools import lru_cache

from .errors import PreconditionError
from .gf2 import (BitPoly, _comb_int, _exponents_desc, _fold_exponents, _poly,
                  _square_mod)

__all__ = ["is_irreducible", "scan"]


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


# Deeper tables mostly reject candidates that the walk's gcds at steps 24
# and 48 would reject soon after: scanning the 20 degrees 171 + 48i in a
# fresh process, tables included, took 220, 205, 230 and 303 ms at depths
# 9, 10, 11 and 12 (medians of seven interleaved runs; the tables alone
# took 2, 6, 22 and 70 ms), and 193 against 198 ms at 9 and 10 in eight
# more. Those runs read every table for every candidate; the packed sieve
# reads one table of 2^depth - 1 ints instead, which doubles in length
# and widens with each degree more.
_SIEVE_DEGREE = 10


def _sieve_moduli() -> tuple[int, ...]:
    """The irreducibles of degree 1 .. _SIEVE_DEGREE except x, ascending.

    Eratosthenes' sieve over GF(2)[x]: an odd g that no smaller one has
    marked is irreducible, and marks each odd multiple g*q up to degree
    _SIEVE_DEGREE. The q run in Gray-code order, so each product is the
    last one XOR one shifted g.
    """
    top = 1 << (_SIEVE_DEGREE + 1)
    composite = bytearray(top)
    out = []
    for g in range(3, top, 2):
        if composite[g]:
            continue
        out.append(g)
        # the odd q of degree <= _SIEVE_DEGREE - d from q = 1: step j
        # flips bit 1 + (the trailing zeros of j) of q
        prod = g
        for j in range(1, top >> g.bit_length()):
            prod ^= g << (j & -j).bit_length()
            composite[prod] = 1
    return tuple(out)


def _pack(slots: list[int]) -> int:
    """One int holding each value in a 16-bit slot, the first lowest."""
    return int.from_bytes(array("H", slots).tobytes(), "little")


# The sieve's slot layout: one 16-bit slot per sieve irreducible g, in the
# order of _MODULI, holding a residue r mod g as r << (_SIEVE_DEGREE - deg g)
# (the slot's entry in _SHIFTS), so x^(deg g) lands on bit _SIEVE_DEGREE of
# every slot. _SLOT_MODULI holds each g shifted so, _ONES 1 in every slot
# and _HIGH bit 15 of every slot.
_MODULI = _sieve_moduli()
_SHIFTS = tuple(_SIEVE_DEGREE + 1 - g.bit_length() for g in _MODULI)
_SLOT_MODULI = _pack([g << s for g, s in zip(_MODULI, _SHIFTS)])
_ONES = _pack([1] * len(_MODULI))
_HIGH = _ONES << 15
# (2^d - 1, 0xFFFF in each slot of degree d) for d = 1 .. _SIEVE_DEGREE
_PERIODS = tuple(((1 << d) - 1, _pack([0xFFFF * (g.bit_length() == d + 1)
                                       for g in _MODULI]))
                 for d in range(1, _SIEVE_DEGREE + 1))


def _times_x(r: int) -> int:
    """x*r mod g in every slot: one shift moves each residue up, and g
    is subtracted from the slots that reached x^(deg g), where bit
    _SIEVE_DEGREE is set. An aligned residue stays below bit
    _SIEVE_DEGREE + 1, so nothing crosses into the next slot."""
    r <<= 1
    return r ^ ((r >> _SIEVE_DEGREE) & _ONES) * 0xFFFF & _SLOT_MODULI


# x^e mod g in every slot for e = 0 .. 2^_SIEVE_DEGREE - 2 (1,023 ints):
# one multiply-by-x step each from x^0. Independent of lam.
_POWERS = [_pack([1 << s for s in _SHIFTS])]
for _ in range((1 << _SIEVE_DEGREE) - 2):
    _POWERS.append(_times_x(_POWERS[-1]))


def _power(e: int) -> int:
    """x^e mod g in every slot.

    x^(2^d - 1) = 1 mod every irreducible g of degree d but x (the
    multiplicative group of GF(2^d) has 2^d - 1 elements), so x^e mod g
    is x^(e mod (2^d - 1)) mod g: a larger e merges, degree by degree,
    the slots of g of degree d from entry e mod (2^d - 1) of _POWERS.
    """
    if e < len(_POWERS):
        return _POWERS[e]
    r = 0
    for period, slots in _PERIODS:
        r |= _POWERS[e % period] & slots
    return r


def _has_small_factor(exps: tuple[int, ...], base: int) -> bool:
    """Whether an irreducible of degree <= _SIEVE_DEGREE divides
    x^lam + sum(x^e for e in exps), where exps ends in 0 and base is
    :func:`_power` at lam.

    The candidate's residues mod all 225 g are the XOR of its packed
    terms, each read from _POWERS (through :func:`_power`, by the Fermat
    identity x^(2^d - 1) = 1 mod g), and some g divides it exactly when
    some slot is 0: with _HIGH bit 15 of every slot, (r | _HIGH) - _ONES
    keeps bit 15 of each nonzero slot and clears it in each zero one, and
    no borrow crosses a slot (the zero-byte test of "Bit Twiddling
    Hacks", on 16-bit slots).
    """
    r = base
    for e in exps:
        r ^= _POWERS[e] if e < len(_POWERS) else _power(e)
    return (r | _HIGH) - _ONES & _HIGH != _HIGH


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
    even det. Each remainder is taken by folding the terms at or above
    x^a back through the three lower terms that x^a equals mod g.
    Polynomials over Z/8 are Python ints with one slot per coefficient,
    wide enough that a product's sums never carry out of it.
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
    # x^a = -lc^-1 (G - lc x^a), and lc^-1 = lc mod 8 (lc odd): three
    # lower terms, through which reduce folds the top of a product until
    # none is left, as _square_mod folds a pentanomial
    (s1, t1), (s2, t2), (s3, t3) = [(slot * e, -lc * t % 8) for e, t in tail]
    top = (t1 << s1) + (t2 << s2) + (t3 << s3)
    high = slot * a

    def reduce(p: int) -> int:
        p &= sevens
        hi = p >> high
        while hi:
            p = ((p & low) + t1 * (hi << s1) + t2 * (hi << s2)
                 + t3 * (hi << s3)) & sevens
            hi = p >> high
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
_CHECKPOINTS = (24, 48)
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


def scan(lam: int) -> tuple[int, ...]:
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
       degree <= 10), a few whole-int operations on the candidate's
       remainders mod all 225 irreducibles g of degree <= 10, packed
       into one int: every term x^e, x^lam once per degree, is read from
       one table of x^e for e < 2^10 - 1 (:func:`_power`), which
       suffices because x^(2^d - 1) = 1 mod each g of degree d;
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
    # At lam <= _SIEVE_DEGREE the sieve's moduli would include the
    # candidate itself, so the same scan runs without it.
    base = _power(lam) if lam > _SIEVE_DEGREE else None
    trinomials = ((m, 0) for m in range(1, lam // 2 + 1)
                  if not _swan_reducible(lam, m))
    pentanomials = ((a, b, c, 0)
                    for a in range(3, lam)
                    for b in range(2, a)
                    for c in range(1, b))
    for exps in itertools.chain(trinomials, pentanomials):
        if base is not None and _has_small_factor(exps, base):
            continue
        if len(exps) == 4 and _stickelberger_reducible(lam, *exps[:3]):
            continue
        if _frobenius_walk(_poly(lam, exps), lam) == 0:
            return exps
    raise PreconditionError(
        f"no irreducible trinomial or pentanomial of degree {lam}")
