"""Exact distribution arithmetic: entropies, distances, the full ciphertext
law, and the security checks built on it."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroseal import statlab
from entroseal.errors import BudgetError, LengthError, PreconditionError
from entroseal.gf2 import BitPoly
from entroseal.keyexpand import ExpansionParams, expand_affine
from entroseal.statlab import (
    Distribution,
    chi_squared_uniform,
    check_collision_bound,
    check_derived_sizing,
    check_indistinguishability,
    ciphertext_distribution,
    collision_entropy,
    collision_probability,
    distance_to_uniform,
    flat_subset,
    geometric,
    min_entropy,
    point_mass,
    statistical_distance,
    uniform,
)

HALF_QUARTER_QUARTER = Distribution(2, {0: 2, 1: 1, 2: 1}, 4)


class TestDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(PreconditionError, match="sum"):
            Distribution(2, {0: 1, 1: 1}, 3)

    def test_outcomes_must_fit_width(self):
        with pytest.raises(PreconditionError, match="outside"):
            Distribution(2, {4: 1}, 1)

    def test_numerators_must_be_positive(self):
        with pytest.raises(PreconditionError):
            Distribution(2, {0: 0, 1: 4}, 4)
        with pytest.raises(PreconditionError):
            Distribution(2, {}, 1)
        with pytest.raises(PreconditionError):
            Distribution(2, {0: 1}, 0)

    def test_prob_and_support(self):
        d = HALF_QUARTER_QUARTER
        assert d.prob(0) == Fraction(1, 2)
        assert d.prob(3) == 0
        assert d.support_size == 3

    def test_constructors(self):
        assert uniform(3).support_size == 8
        assert point_mass(4, 7).prob(7) == 1
        assert flat_subset(5, 0) == point_mass(5)
        assert flat_subset(3, 3) == uniform(3)
        g = geometric(2)
        assert g.numerators == {0: 8, 1: 4, 2: 2, 3: 1}
        assert g.denominator == 15

    def test_flat_subset_range_check(self):
        with pytest.raises(PreconditionError):
            flat_subset(3, 4)

    def test_zero_bit_distribution(self):
        d = uniform(0)
        assert collision_probability(d) == 1
        assert distance_to_uniform(d) == 0


class TestEntropies:
    def test_half_quarter_quarter(self):
        d = HALF_QUARTER_QUARTER
        assert collision_probability(d) == Fraction(3, 8)
        assert min_entropy(d) == 1.0
        assert collision_entropy(d) == pytest.approx(1.415037499278844, rel=1e-14)

    def test_geometric(self):
        g = geometric(2)
        assert collision_probability(g) == Fraction(17, 45)
        assert min_entropy(g) == pytest.approx(0.9068905956085186, rel=1e-14)

    def test_flat_subset_entropies(self):
        d = flat_subset(6, 4)
        assert min_entropy(d) == 4.0
        assert collision_entropy(d) == pytest.approx(4.0)
        assert collision_probability(d) == Fraction(1, 16)

    def test_min_entropy_never_exceeds_collision_entropy(self):
        rng = random.Random(31)
        for _ in range(30):
            nums = {x: rng.randint(1, 9) for x in range(rng.randint(1, 16))}
            d = Distribution(4, nums, sum(nums.values()))
            assert min_entropy(d) <= collision_entropy(d) + 1e-12


class TestDistances:
    def test_point_mass_to_uniform(self):
        assert distance_to_uniform(point_mass(2)) == Fraction(3, 4)

    def test_flat_subset_to_uniform(self):
        assert distance_to_uniform(flat_subset(4, 2)) == Fraction(3, 4)
        assert distance_to_uniform(HALF_QUARTER_QUARTER) == Fraction(1, 4)

    def test_uniform_is_at_distance_zero(self):
        for nbits in range(4):
            assert distance_to_uniform(uniform(nbits)) == 0

    def test_statistical_distance_basics(self):
        a, b = point_mass(2, 0), point_mass(2, 3)
        assert statistical_distance(a, b) == 1
        assert statistical_distance(a, a) == 0
        assert statistical_distance(a, uniform(2)) == Fraction(3, 4)

    def test_statistical_distance_width_check(self):
        with pytest.raises(LengthError):
            statistical_distance(uniform(2), uniform(3))

    @given(st.dictionaries(st.integers(min_value=0, max_value=15),
                           st.integers(min_value=1, max_value=9),
                           min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_explicit_uniform(self, nums):
        d = Distribution(4, nums, sum(nums.values()))
        assert distance_to_uniform(d) == statistical_distance(d, uniform(4))

    @given(st.dictionaries(st.integers(min_value=0, max_value=15),
                           st.integers(min_value=1, max_value=9),
                           min_size=1, max_size=16),
           st.dictionaries(st.integers(min_value=0, max_value=15),
                           st.integers(min_value=1, max_value=9),
                           min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_distance_is_a_metric(self, nums1, nums2):
        d1 = Distribution(4, nums1, sum(nums1.values()))
        d2 = Distribution(4, nums2, sum(nums2.values()))
        d12 = statistical_distance(d1, d2)
        assert 0 <= d12 <= 1
        assert d12 == statistical_distance(d2, d1)
        assert d12 <= distance_to_uniform(d1) + distance_to_uniform(d2)


class TestCiphertextDistribution:
    def test_matches_direct_enumeration(self):
        params = ExpansionParams.classical(2, 1)
        dx = Distribution(2, {0: 2, 1: 1, 3: 1}, 4)
        got = ciphertext_distribution(params, dx)
        lam, tail, ell = params.lam, params.tail_len, params.ell
        want = Counter()
        for k in range(2):
            for u in range(1 << lam):
                for v in range(1 << tail):
                    pad = expand_affine(BitPoly(k, ell), BitPoly(u, lam),
                                        BitPoly(v, tail), params).value
                    for x, num in dx.numerators.items():
                        y = ((x ^ pad) << (lam + tail)) | u | (v << lam)
                        want[y] += num
        assert got.numerators == dict(want)
        assert got.denominator == (1 << (ell + lam + tail)) * 4
        assert got.nbits == lam + tail + 2

    def test_uniform_plaintext_gives_exactly_uniform_joint(self):
        params = ExpansionParams.classical(4, 2)
        y = ciphertext_distribution(params, uniform(4))
        assert y.nbits == 8
        assert collision_probability(y) == Fraction(1, 256)
        assert distance_to_uniform(y) == 0

    def test_structured_plaintext_leaves_a_trace(self):
        # the joint law is biased for a flat subset, even though both the
        # (u, v) marginal and the payload marginal are exactly uniform
        params = ExpansionParams.classical(4, 2)
        y = ciphertext_distribution(params, flat_subset(4, 1))
        assert distance_to_uniform(y) == Fraction(9, 16)
        lam_tail = params.lam + params.tail_len
        uv_counts = Counter()
        payload_counts = Counter()
        for outcome, num in y.numerators.items():
            uv_counts[outcome & ((1 << lam_tail) - 1)] += num
            payload_counts[outcome >> lam_tail] += num
        assert len(set(uv_counts.values())) == 1
        assert len(set(payload_counts.values())) == 1

    def test_budget_guard_names_the_required_budget(self):
        params = ExpansionParams.classical(8, 4)
        with pytest.raises(BudgetError, match="4096"):
            ciphertext_distribution(params, point_mass(8), budget=100)

    def test_rejects_quantum_params_and_width_mismatch(self):
        with pytest.raises(PreconditionError):
            ciphertext_distribution(ExpansionParams.quantum(2, 1), uniform(4))
        with pytest.raises(LengthError):
            ciphertext_distribution(ExpansionParams.classical(4, 2), uniform(3))


class TestSecurityChecks:
    def test_collision_bound_passes_on_small_grid(self):
        for n in (2, 3):
            for ell in range(1, n + 1):
                params = ExpansionParams.classical(n, ell)
                for label, dx in [("uniform", uniform(n)),
                                  ("point", point_mass(n)),
                                  ("geometric", geometric(n))]:
                    rep = check_collision_bound(params, dx, label=label)
                    assert rep.passed, rep.line()
                    assert dict(rep.context)["lambda_gt_ell"] == (
                        params.lam != ell)
                    assert rep.value <= rep.bound

    def test_collision_bound_fails_on_an_all_zero_pad(self, monkeypatch):
        # a pad that ignores the key sends the payload in the clear. At
        # n = 3, ell = 2 the bound is 2^-6 (1 + 2 CP(X)): a point mass then
        # collides with probability 1/8, 8/3 times its bound 3/64, and a
        # flat 2-bit subset with 1/32, 4/3 times its bound 3/128, which a
        # bound read twice as loose would pass
        monkeypatch.setattr(statlab, "expand_affine",
                            lambda k, u, v, params: BitPoly(0, params.n))
        params = ExpansionParams.classical(3, 2)
        for dx, lhs, bound in ((point_mass(3, 5), Fraction(1, 8),
                                Fraction(3, 64)),
                               (flat_subset(3, 2), Fraction(1, 32),
                                Fraction(3, 128))):
            rep = check_collision_bound(params, dx, label="zero-pad")
            assert (rep.value, rep.bound) == (lhs, bound)
            assert not rep.passed
            assert rep.line().startswith("FAIL collision-bound")

    def test_collision_bound_report_shape(self):
        rep = check_collision_bound(ExpansionParams.classical(3, 3),
                                    uniform(3), label="uniform")
        assert rep.line().startswith("PASS collision-bound")
        packed = json.dumps(rep.to_dict())
        assert "uniform" in packed

    def test_indistinguishability_uniform_is_tight_zero(self):
        rep = check_indistinguishability(ExpansionParams.classical(3, 2),
                                         uniform(3), label="uniform")
        assert rep.passed
        assert rep.value == 0  # delta^2
        assert rep.bound == 0  # eps*^2

    def test_indistinguishability_on_structured_families(self):
        for n, ell, t in [(3, 2, 1), (4, 3, 2), (4, 2, 2)]:
            rep = check_indistinguishability(
                ExpansionParams.classical(n, ell), flat_subset(n, t),
                label=f"flat-{t}")
            assert rep.passed, rep.line()
            assert isinstance(rep.value, Fraction)
            assert rep.value <= rep.bound  # delta^2 <= eps*^2

    def test_derived_sizing_degenerate_and_generic(self):
        # ell = n instances pad with the key alone and sit at distance 0
        rep = check_derived_sizing(4, 3, 2.0 ** -4)
        assert dict(rep.context)["ell"] == 4 and rep.value == 0 and rep.passed
        # a genuinely expanding instance
        rep2 = check_derived_sizing(5, 4, 2.0 ** -4)
        assert dict(rep2.context)["ell"] == 4
        assert rep2.bound == Fraction(1, 2)
        assert rep2.passed, rep2.line()
        assert "PASS derived-sizing" in rep2.line()

    def test_reports_serialize(self):
        rep = check_derived_sizing(4, 3, 2.0 ** -4)
        d = rep.to_dict()
        json.dumps(d)
        assert d["check"] == "derived-sizing"


class TestChiSquared:
    def test_wilson_hilferty_quantiles_frozen(self):
        from entroseal.statlab import _chi_squared_quantile
        assert _chi_squared_quantile(255, 0.999) == pytest.approx(
            330.55400449614086, rel=1e-12)
        assert _chi_squared_quantile(15, 0.999) == pytest.approx(
            37.84150297037527, rel=1e-12)

    def test_uniform_counts_pass(self):
        rng = random.Random(105)
        counts = Counter(rng.randrange(16) for _ in range(40_000))
        rep = chi_squared_uniform(counts, 4)
        assert rep.passed, rep.line()
        assert dict(rep.context)["samples"] == 40_000

    def test_biased_counts_fail(self):
        rng = random.Random(106)
        counts = Counter(min(rng.randrange(16), rng.randrange(16))
                         for _ in range(40_000))
        rep = chi_squared_uniform(counts, 4)
        assert not rep.passed
        assert rep.line().startswith("FAIL")

    def test_missing_cells_count_as_zero(self):
        rep = chi_squared_uniform({0: 100}, 2)
        assert not rep.passed

    def test_empty_counts_rejected(self):
        with pytest.raises(PreconditionError):
            chi_squared_uniform({}, 4)
