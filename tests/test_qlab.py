"""Density-matrix lab tests: Pauli keys, partial traces, exact key
averages, the collision-entropy term, and the trace-norm bound checks."""

import math

import numpy as np
import pytest

from entroseal.errors import (BudgetError, DominationError, LengthError,
                              PreconditionError)
from entroseal.gf2 import BitPoly
from entroseal.keyexpand import ExpansionParams
from entroseal.qlab import (
    IDENTITY_TOL,
    BipartiteState,
    PauliKey,
    check_full_randomization,
    check_pair_moment_identity,
    check_trace_norm_bound,
    check_v_average_mixes,
    collision_entropy_term,
    full_qotp_average,
    fully_mixed,
    key_average,
    qotp_apply,
    random_matrix_function,
    random_state,
    singular_value_norm,
    trace_norm,
)

X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
I2 = np.eye(2, dtype=np.complex128)


class TestPauliKey:
    def test_single_qubit_unitaries(self):
        assert np.allclose(PauliKey(BitPoly(0b00, 2)).unitary(), I2)
        assert np.allclose(PauliKey(BitPoly(0b01, 2)).unitary(), X)
        assert np.allclose(PauliKey(BitPoly(0b10, 2)).unitary(), Z)
        assert np.allclose(PauliKey(BitPoly(0b11, 2)).unitary(), X @ Z)

    def test_two_qubit_bit_order(self):
        # qubit 0 lives in the lowest bit of s; the tensor factor order is
        # qubit n-1 down to qubit 0
        key = PauliKey(BitPoly(0b0001, 4))  # s = 01, q = 00
        assert np.allclose(key.unitary(), np.kron(I2, X))
        key = PauliKey(BitPoly(0b0010, 4))  # s = 10, q = 00
        assert np.allclose(key.unitary(), np.kron(X, I2))
        key = PauliKey(BitPoly(0b0100, 4))  # s = 00, q = 01
        assert np.allclose(key.unitary(), np.kron(I2, Z))

    def test_bit_accessors(self):
        key = PauliKey(BitPoly(0b1101, 4))
        assert key.n == 2
        assert (key.s_bit(0), key.s_bit(1)) == (1, 0)
        assert (key.q_bit(0), key.q_bit(1)) == (1, 1)

    def test_unitarity(self):
        for beta in range(16):
            u = PauliKey(BitPoly(beta, 4)).unitary()
            assert np.allclose(u @ u.conj().T, np.eye(4))

    def test_odd_width_rejected(self):
        with pytest.raises(LengthError):
            PauliKey(BitPoly(0b101, 3))
        with pytest.raises(LengthError):
            PauliKey(BitPoly(0, 0))


class TestBipartiteState:
    def test_validation(self):
        good = random_state(1, 2, "mixed", 0)
        BipartiteState(1, 2, good.mat)
        with pytest.raises(PreconditionError, match="Hermitian"):
            BipartiteState(1, 2, good.mat + 1j * np.eye(4) * 1e-6)
        with pytest.raises(PreconditionError, match="trace"):
            BipartiteState(1, 2, good.mat * 2)
        with pytest.raises(LengthError):
            BipartiteState(1, 2, np.eye(3, dtype=np.complex128) / 3)
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(np.complex128)
        with pytest.raises(PreconditionError, match="eigenvalue"):
            BipartiteState(1, 2, bad)

    def test_partial_traces_of_a_product(self):
        a = random_state(1, 1, "mixed", 5).mat
        e = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=np.complex128)
        st = BipartiteState(1, 2, np.kron(a, e))
        assert np.allclose(st.reduced_a(), a * np.trace(e))
        assert np.allclose(st.reduced_e(), e * np.trace(a))

    def test_partial_traces_preserve_the_trace(self):
        st = random_state(2, 3, "mixed", 7)
        assert np.trace(st.reduced_a()) == pytest.approx(1.0)
        assert np.trace(st.reduced_e()) == pytest.approx(1.0)


class TestQotp:
    def test_conjugation_is_an_involution(self):
        st = random_state(2, 2, "mixed", 11)
        for beta in (0b0000, 0b0110, 0b1111, 0b1001):
            key = BitPoly(beta, 4)
            back = qotp_apply(key, qotp_apply(key, st))
            assert np.allclose(back.mat, st.mat, atol=1e-13)

    def test_conjugation_preserves_spectrum(self):
        st = random_state(1, 2, "mixed", 13)
        before = np.sort(np.linalg.eigvalsh(st.mat))
        after = np.sort(np.linalg.eigvalsh(qotp_apply(BitPoly(0b11, 2), st).mat))
        assert np.allclose(before, after)

    def test_key_size_mismatch(self):
        with pytest.raises(LengthError):
            qotp_apply(BitPoly(0, 4), random_state(1, 2, "pure", 17))

    def test_full_average_mixes_the_a_side(self):
        for kind, seed in [("pure", 1), ("mixed", 2), ("product", 3),
                           ("max_entangled", 4)]:
            st = random_state(2, 2, kind, seed)
            avg = full_qotp_average(st)
            want = np.kron(fully_mixed(4), st.reduced_e())
            assert np.max(np.abs(avg.mat - want)) < 1e-13

    def test_full_average_budget(self):
        with pytest.raises(BudgetError):
            full_qotp_average(random_state(2, 2, "pure", 5), max_qubits=1)


class TestKeyAverage:
    def test_full_length_key_recovers_the_complete_average(self):
        st = random_state(1, 2, "pure", 19)
        params = ExpansionParams.quantum(1, 2)  # tail 0: pad = key
        u = BitPoly(0b01, 2)
        avg = key_average(u, BitPoly(0, 0), params, st)
        assert np.allclose(avg.mat, full_qotp_average(st).mat, atol=1e-13)

    def test_average_preserves_trace_and_hermiticity(self):
        st = random_state(2, 2, "mixed", 23)
        params = ExpansionParams.quantum(2, 1)
        avg = key_average(BitPoly(0b101, 3), BitPoly(0b010, 3), params, st)
        assert np.trace(avg.mat).real == pytest.approx(1.0)
        assert np.allclose(avg.mat, avg.mat.conj().T)

    def test_budget_and_mode_guards(self):
        st = random_state(2, 2, "pure", 29)
        params = ExpansionParams.quantum(2, 3)
        with pytest.raises(BudgetError):
            key_average(BitPoly(0, 3), BitPoly(0, 1), params, st, max_keys=4)
        with pytest.raises(PreconditionError):
            key_average(BitPoly(0, 2), BitPoly(0, 2),
                        ExpansionParams.classical(4, 2), st)


class TestNorms:
    def test_trace_norm_known_value(self):
        assert trace_norm(Z) == pytest.approx(2.0)
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_trace_norm_requires_hermitian(self):
        with pytest.raises(PreconditionError):
            trace_norm(np.array([[0, 1], [0, 0]], dtype=np.complex128))

    def test_singular_value_norm_extends_it(self):
        m = np.array([[0, 1], [0, 0]], dtype=np.complex128)
        assert singular_value_norm(m) == pytest.approx(1.0)
        h = random_state(1, 2, "mixed", 31).mat - np.eye(4) / 4
        assert singular_value_norm(h) == pytest.approx(trace_norm(h))


class TestCollisionEntropyTerm:
    def test_product_state_with_its_own_marginal(self):
        st = random_state(2, 2, "product", 37)
        rho_a = st.reduced_a()
        got = collision_entropy_term(st, st.reduced_e())
        assert got == pytest.approx(float(np.trace(rho_a @ rho_a).real))

    def test_fully_mixed_value(self):
        for n, de in [(1, 2), (2, 2), (1, 4)]:
            dim = (1 << n) * de
            st = BipartiteState(n, de, np.eye(dim, dtype=np.complex128) / dim)
            got = collision_entropy_term(st, fully_mixed(de))
            assert got == pytest.approx(2.0 ** -n)

    def test_maximally_mixed_sigma_scales_purity(self):
        st = random_state(1, 2, "mixed", 41)
        got = collision_entropy_term(st, fully_mixed(2))
        purity = float(np.trace(st.mat @ st.mat).real)
        assert got == pytest.approx(2 * purity)

    def test_pure_state_quadratic_form(self):
        st = random_state(1, 2, "pure", 43)
        sigma = st.reduced_e()
        got = collision_entropy_term(st, sigma)
        # for a pure state the term is <psi|S|psi>^2
        w, vecs = np.linalg.eigh(sigma)
        keep = w > np.max(w) * 1e-12
        inv_sqrt = (vecs[:, keep] @ np.diag(w[keep] ** -0.5)
                    @ vecs[:, keep].conj().T)
        s = np.kron(np.eye(2, dtype=np.complex128), inv_sqrt)
        psi_form = float(np.trace(st.mat @ s @ st.mat @ s).real)
        assert got == pytest.approx(psi_form)

    def test_independent_implementation_agrees(self):
        rng = np.random.default_rng(47)
        for seed in range(5):
            st = random_state(1, 2, "mixed", 300 + seed)
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            sigma = g @ g.conj().T + 0.1 * np.eye(2)
            got = collision_entropy_term(st, sigma)
            # reference: full-rank sigma, plain inverse square root
            w, vecs = np.linalg.eigh(sigma)
            inv_sqrt = vecs @ np.diag(w ** -0.5) @ vecs.conj().T
            s = np.kron(np.eye(2), inv_sqrt)
            want = float(np.trace(st.mat @ s @ st.mat @ s).real)
            assert got == pytest.approx(want, rel=1e-10)

    def test_dominating_rank_deficient_sigma_is_fine(self):
        a = random_state(1, 1, "mixed", 53).mat
        e = np.diag([1.0, 0.0]).astype(np.complex128)
        st = BipartiteState(1, 2, np.kron(a, e))
        got = collision_entropy_term(st, e)
        assert got == pytest.approx(float(np.trace(a @ a).real))

    def test_non_dominating_sigma_raises(self):
        st = random_state(1, 2, "mixed", 59)  # full-rank E marginal
        with pytest.raises(DominationError):
            collision_entropy_term(st, np.diag([1.0, 0.0]).astype(np.complex128))

    def test_zero_sigma_raises(self):
        st = random_state(1, 2, "mixed", 61)
        with pytest.raises(DominationError):
            collision_entropy_term(st, np.zeros((2, 2), dtype=np.complex128))

    def test_sigma_validation(self):
        st = random_state(1, 2, "mixed", 67)
        with pytest.raises(LengthError):
            collision_entropy_term(st, np.eye(3, dtype=np.complex128))
        with pytest.raises(PreconditionError):
            collision_entropy_term(st, np.array([[0, 1], [0, 0]],
                                                dtype=np.complex128))


class TestRandomStates:
    def test_kinds_and_basic_structure(self):
        pure = random_state(2, 2, "pure", 71)
        assert np.trace(pure.mat @ pure.mat).real == pytest.approx(1.0)
        product = random_state(1, 3, "product", 73)
        assert np.trace(product.mat @ product.mat).real == pytest.approx(1.0)
        assert np.allclose(product.mat,
                           np.kron(product.reduced_a(), product.reduced_e()))
        ent = random_state(1, 2, "max_entangled", 79)
        assert np.allclose(ent.reduced_a(), fully_mixed(2))
        mixed = random_state(1, 2, "mixed", 83)
        assert np.trace(mixed.mat @ mixed.mat).real < 1.0

    def test_seed_determinism(self):
        a = random_state(1, 2, "pure", 89)
        b = random_state(1, 2, "pure", 89)
        assert np.array_equal(a.mat, b.mat)

    def test_bad_kind_and_sizes(self):
        with pytest.raises(PreconditionError):
            random_state(1, 2, "thermal", 1)
        with pytest.raises(PreconditionError):
            random_state(1, 1, "max_entangled", 1)

    def test_random_matrix_function_shape(self):
        f = random_matrix_function(1, 4, 97)
        assert len(f) == 4
        assert all(m.shape == (4, 4) for m in f)
        again = random_matrix_function(1, 4, 97)
        assert all(np.array_equal(a, b) for a, b in zip(f, again))


class TestChecks:
    def test_full_randomization_check(self):
        for kind in ("pure", "mixed", "product"):
            rep = check_full_randomization(random_state(2, 2, kind, 101))
            assert rep.passed, rep.line()
            assert rep.value <= IDENTITY_TOL

    def test_v_average_mixes_for_every_u(self):
        st = random_state(1, 2, "pure", 103)
        for ell in (1, 2):
            params = ExpansionParams.quantum(1, ell)
            for u in range(1 << params.lam):
                rep = check_v_average_mixes(BitPoly(u, params.lam), params, st)
                assert rep.passed, rep.line()

    def test_pair_moment_identity_random_f(self):
        for n, ell in [(1, 1), (1, 2), (2, 1), (2, 4)]:
            rep = check_pair_moment_identity(n, ell, seed=500 + n + ell)
            assert rep.passed, rep.line()

    def test_pair_moment_identity_constant_f_is_exact(self):
        f0 = np.array([[2.0, 1.0], [1.0, -1.0]], dtype=np.complex128)
        rep = check_pair_moment_identity(1, 1, f=[f0] * 4)
        assert rep.passed
        assert rep.value <= 1e-14

    def test_pair_moment_budget_guards(self):
        with pytest.raises(BudgetError):
            check_pair_moment_identity(4, 1)
        with pytest.raises(BudgetError):
            check_pair_moment_identity(1, 1, dim=16)
        with pytest.raises(LengthError):
            check_pair_moment_identity(1, 1, f=[np.eye(2)] * 3)

    def test_trace_norm_bound_product_state(self):
        params = ExpansionParams.quantum(1, 1)
        st = random_state(1, 2, "product", 107)
        sigmas = [st.reduced_e(), fully_mixed(2)]
        rep = check_trace_norm_bound(params, st, sigmas)
        assert rep.passed, rep.line()
        product_bound = dict(rep.context)["product_bound"]
        assert product_bound == pytest.approx(1.0)
        assert rep.value <= product_bound * (1 + 1e-9)

    def test_trace_norm_bound_entangled_state(self):
        params = ExpansionParams.quantum(1, 1)
        st = random_state(1, 2, "max_entangled", 109)
        rng = np.random.default_rng(111)
        sigmas = [st.reduced_e(), fully_mixed(2)]
        for _ in range(3):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            sigmas.append(g @ g.conj().T + 0.05 * np.eye(2))
        rep = check_trace_norm_bound(params, st, sigmas)
        assert rep.passed, rep.line()
        assert "product_bound" not in dict(rep.context)
        # every ceiling is proved, so the check holds the left side to the
        # smallest of them, not to the loosest
        ceilings = [check_trace_norm_bound(params, st, [s]).bound
                    for s in sigmas]
        assert min(ceilings) < max(ceilings)
        assert rep.bound == min(ceilings)

    def test_trace_norm_bound_fixed_point_has_zero_lhs(self):
        params = ExpansionParams.quantum(1, 1)
        st = BipartiteState(1, 2, np.eye(4, dtype=np.complex128) / 4)
        rep = check_trace_norm_bound(params, st, [fully_mixed(2)])
        assert rep.value <= 1e-13
        assert rep.passed

    def test_trace_norm_bound_guards(self):
        st = random_state(1, 2, "pure", 113)
        with pytest.raises(PreconditionError):
            check_trace_norm_bound(ExpansionParams.classical(2, 1), st,
                                   [fully_mixed(2)])
        with pytest.raises(PreconditionError):
            check_trace_norm_bound(ExpansionParams.quantum(1, 1), st, [])
        with pytest.raises(LengthError):
            check_trace_norm_bound(ExpansionParams.quantum(2, 1), st,
                                   [fully_mixed(2)])

    def test_report_lines_and_dicts(self):
        import json
        rep = check_full_randomization(random_state(1, 1, "pure", 127))
        assert rep.line().startswith("PASS full-randomization")
        json.dumps(rep.to_dict())
        params = ExpansionParams.quantum(1, 1)
        st = random_state(1, 2, "pure", 131)
        bound_rep = check_trace_norm_bound(params, st, [fully_mixed(2)])
        assert "trace-norm-bound" in bound_rep.line()
        json.dumps(bound_rep.to_dict())
