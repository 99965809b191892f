"""Exact verification of the classical security claims.

A distribution is a map from outcomes to integer numerators over one
common denominator, so collision probabilities, statistical distances,
and the security bounds compare as exact rationals. The three bound
checks (``check_collision_bound``, ``check_indistinguishability`` and
``check_derived_sizing``) assert the claimed inequalities with no
tolerance at all; a reported failure is a real counterexample, not
rounding noise. The one approximate test is ``chi_squared_uniform``, a
float statistic against a Wilson-Hilferty threshold, for sampled counts.

Every check returns a :class:`entroseal._record.Check` whose ``value``
and ``bound`` are the two sides it compares, as exact ``Fraction``
values (floats for the chi-squared test).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Mapping

from ._record import Check
from .errors import BudgetError, LengthError, PreconditionError
from .gf2 import BitPoly
from .keyexpand import ExpansionParams, Mode, expand_affine
from .cipher import SchemeParams

__all__ = [
    "DEFAULT_BUDGET",
    "Distribution",
    "uniform",
    "point_mass",
    "flat_subset",
    "geometric",
    "min_entropy",
    "collision_entropy",
    "collision_probability",
    "statistical_distance",
    "distance_to_uniform",
    "ciphertext_distribution",
    "check_collision_bound",
    "check_indistinguishability",
    "check_derived_sizing",
    "chi_squared_uniform",
]

DEFAULT_BUDGET = 2 ** 30


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over nbits-bit strings, exact rationals.

    numerators maps outcome -> positive integer; probabilities are
    numerators[x] / denominator and must sum to exactly 1.
    """

    nbits: int
    numerators: Mapping[int, int]
    denominator: int

    def __post_init__(self) -> None:
        if self.nbits < 0:
            raise PreconditionError("nbits must be nonnegative")
        if self.denominator < 1:
            raise PreconditionError("denominator must be positive")
        if not self.numerators:
            raise PreconditionError("support must be nonempty")
        total = 0
        limit = 1 << self.nbits
        for x, num in self.numerators.items():
            if not 0 <= x < limit:
                raise PreconditionError(
                    f"outcome {x} outside [0, 2^{self.nbits})")
            if num <= 0:
                raise PreconditionError("numerators must be positive")
            total += num
        if total != self.denominator:
            raise PreconditionError(
                f"probabilities sum to {total}/{self.denominator}, not 1")

    @property
    def support_size(self) -> int:
        return len(self.numerators)

    def prob(self, x: int) -> Fraction:
        return Fraction(self.numerators.get(x, 0), self.denominator)


def uniform(nbits: int) -> Distribution:
    size = 1 << nbits
    return Distribution(nbits, {x: 1 for x in range(size)}, size)


def point_mass(nbits: int, value: int = 0) -> Distribution:
    return Distribution(nbits, {value: 1}, 1)


def flat_subset(nbits: int, t: int) -> Distribution:
    """Uniform on the first 2^t outcomes; min- and collision entropy t."""
    if not 0 <= t <= nbits:
        raise PreconditionError(f"t must be in [0, {nbits}], got {t}")
    size = 1 << t
    return Distribution(nbits, {x: 1 for x in range(size)}, size)


def geometric(nbits: int) -> Distribution:
    """p(x) proportional to 2^-x over the full range, exactly normalized."""
    m = 1 << nbits
    nums = {x: 1 << (m - 1 - x) for x in range(m)}
    return Distribution(nbits, nums, (1 << m) - 1)


def collision_probability(d: Distribution) -> Fraction:
    num = sum(v * v for v in d.numerators.values())
    return Fraction(num, d.denominator * d.denominator)


def min_entropy(d: Distribution) -> float:
    return -math.log2(max(d.numerators.values()) / d.denominator)


def collision_entropy(d: Distribution) -> float:
    cp = collision_probability(d)
    return -math.log2(cp.numerator / cp.denominator)


def statistical_distance(d1: Distribution, d2: Distribution) -> Fraction:
    """Half L1 distance, exact."""
    if d1.nbits != d2.nbits:
        raise LengthError(
            f"distributions live on {d1.nbits}- and {d2.nbits}-bit strings")
    total = Fraction(0)
    for x in set(d1.numerators) | set(d2.numerators):
        total += abs(d1.prob(x) - d2.prob(x))
    return total / 2


def distance_to_uniform(d: Distribution) -> Fraction:
    """Distance to the uniform distribution on all 2^nbits strings.

    Closed form that never materializes the uniform distribution: off
    support each term is exactly 1/2^nbits.
    """
    m = 1 << d.nbits
    total = Fraction(0)
    for num in d.numerators.values():
        total += abs(Fraction(num, d.denominator) - Fraction(1, m))
    total += Fraction(m - d.support_size, m)
    return total / 2


def ciphertext_distribution(params: ExpansionParams, dx: Distribution,
                            budget: int = DEFAULT_BUDGET) -> Distribution:
    """Exact law of (U, V, X xor pad(K, U, V)) with K, U, V uniform.

    Outcomes are packed with u in the low lambda bits, v in the next
    tail_len bits, and the masked payload on top, matching the wire
    order. The enumeration walks all (k, u, v, x) tuples; the cost
    guard counts weighted terms before starting.
    """
    if params.mode is not Mode.CLASSICAL:
        raise PreconditionError("ciphertext enumeration is classical-mode")
    if dx.nbits != params.n:
        raise LengthError(
            f"plaintext distribution has {dx.nbits} bits, scheme n = {params.n}")
    ell, lam, tail = params.ell, params.lam, params.tail_len
    terms = (1 << (ell + lam + tail)) * dx.support_size
    if terms > budget:
        raise BudgetError(
            f"enumeration needs a budget of {terms} weighted terms, "
            f"configured budget is {budget}")
    zero_v = BitPoly(0, tail)
    shift = lam + tail
    acc: dict[int, int] = {}
    items = list(dx.numerators.items())
    for k in range(1 << ell):
        kp = BitPoly(k, ell)
        for u in range(1 << lam):
            core = expand_affine(kp, BitPoly(u, lam), zero_v, params).value
            for v in range(1 << tail):
                pad = core ^ (v << ell)
                uv_index = u | (v << lam)
                for x, num in items:
                    y = ((x ^ pad) << shift) | uv_index
                    acc[y] = acc.get(y, 0) + num
    den = (1 << (ell + lam + tail)) * dx.denominator
    return Distribution(lam + tail + params.n, acc, den)


def check_collision_bound(params: ExpansionParams, dx: Distribution,
                          budget: int = DEFAULT_BUDGET,
                          label: str = "") -> Check:
    """Collision probability of the ciphertext <= 2^-2n (1 + 2^(n-ell) CP(X)).

    Both sides are exact rationals, so the comparison has no tolerance.
    When lambda > ell (short keys) the inequality is still checked but
    flagged (``lambda_gt_ell``), since the proof's counting argument is
    stated for the lambda = ell branch.
    """
    y = ciphertext_distribution(params, dx, budget)
    lhs = collision_probability(y)
    cp_x = collision_probability(dx)
    n, ell = params.n, params.ell
    bound = Fraction(1, 1 << (2 * n)) * (1 + (1 << (n - ell)) * cp_x)
    return Check(
        "collision-bound",
        {"n": n, "ell": ell, "lam": params.lam, "family": label,
         "lambda_gt_ell": params.lam != ell},
        lhs <= bound, lhs, bound)


def check_indistinguishability(params: ExpansionParams, dx: Distribution,
                               budget: int = DEFAULT_BUDGET,
                               label: str = "") -> Check:
    """Distance to uniform <= eps*, with eps* from the collision level.

    If a distribution on S points has collision probability
    (1 + 2 eps^2)/|S| then it is within eps of uniform; eps* is the eps
    that makes this tight for the measured collision probability. The
    comparison is done on squares to stay in exact arithmetic: the
    check's value is delta^2 and its bound eps*^2.

    The check cannot fail, on any distribution: by Cauchy-Schwarz,
    delta <= 1/2 sqrt(|S| CP - 1), so delta^2 <= eps*^2 / 2. It records
    how far below the bound the scheme sits, and a looser bound (such as
    4 eps*^2) would change no verdict; even a pad of all zeros, at n = 3
    and ell = 2 with a point mass, reads 49/64 against 7/2.
    """
    y = ciphertext_distribution(params, dx, budget)
    delta = distance_to_uniform(y)
    cp = collision_probability(y)
    size = 1 << y.nbits
    eps_star_sq = max((cp * size - 1) / 2, Fraction(0))
    return Check(
        "indistinguishability",
        {"n": params.n, "ell": params.ell, "family": label},
        delta * delta <= eps_star_sq, delta * delta, eps_star_sq)


def check_derived_sizing(n: int, t: int, epsilon: float,
                         budget: int = DEFAULT_BUDGET) -> Check:
    """At the derived classical key length, distance to uniform <= 8 eps.

    The plaintext family is flat on a 2^t subset (the worst case the
    sizing formula is stated for); epsilon must be a dyadic rational so
    the bound is exact.
    """
    params = SchemeParams.derive(n, t, epsilon, Mode.CLASSICAL)
    dx = flat_subset(n, t)
    y = ciphertext_distribution(params, dx, budget)
    delta = distance_to_uniform(y)
    bound = 8 * Fraction(epsilon)
    return Check(
        "derived-sizing",
        {"n": n, "t": t, "epsilon": epsilon, "ell": params.ell},
        delta <= bound, delta, bound)


def _chi_squared_quantile(df: int, p: float) -> float:
    """Wilson-Hilferty approximation to the chi-squared quantile."""
    z = NormalDist().inv_cdf(p)
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


def chi_squared_uniform(counts: Mapping[int, int], nbits: int) -> Check:
    """Pearson chi-squared test of uniformity over all 2^nbits cells.

    The statistic must fall strictly below the threshold at significance
    1e-3.
    """
    significance = 1e-3
    cells = 1 << nbits
    total = sum(counts.values())
    if total <= 0:
        raise PreconditionError("need at least one sample")
    expected = total / cells
    stat = 0.0
    for x in range(cells):
        diff = counts.get(x, 0) - expected
        stat += diff * diff / expected
    threshold = _chi_squared_quantile(cells - 1, 1.0 - significance)
    return Check(
        "chi-squared-uniformity",
        {"nbits": nbits, "samples": total, "significance": significance},
        stat < threshold, stat, threshold)
