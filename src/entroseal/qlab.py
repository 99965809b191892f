"""Small-n density-matrix laboratory for the quantum pad claims.

States live on A (n qubits) tensor E (a finite side system held by the
adversary). The pad applies X^s Z^q per qubit, keyed by a 2n-bit string
beta = s || q. The lab verifies, by exact enumeration at small sizes:

* averaging over all 2^(2n) keys yields the fully mixed state on A;
* for every u, averaging the expanded keys over v alone already mixes A;
* the pair-moment operator identity behind the collision argument;
* the trace-norm bound, including its per-sigma intermediate form.

Everything is double precision; tolerances follow a two-level ladder
(1e-12 structural, 1e-10 for identities) suited to eigendecompositions
at dimension <= 32. Every check returns a :class:`entroseal._record.Check`
whose ``value`` is the measured float (a trace distance, an entrywise
residual, or the averaged trace norm) and whose ``bound`` is the float
it must not exceed (the tolerance, or the smallest proved ceiling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from ._record import Check
from .errors import BudgetError, DominationError, LengthError, PreconditionError
from .gf2 import BitPoly
from .keyexpand import ExpansionParams, Mode, expand_affine

__all__ = [
    "STRUCT_TOL",
    "IDENTITY_TOL",
    "BipartiteState",
    "PauliKey",
    "fully_mixed",
    "qotp_apply",
    "full_qotp_average",
    "key_average",
    "trace_norm",
    "singular_value_norm",
    "collision_entropy_term",
    "random_state",
    "random_matrix_function",
    "check_full_randomization",
    "check_v_average_mixes",
    "check_pair_moment_identity",
    "check_trace_norm_bound",
]

STRUCT_TOL = 1e-12
IDENTITY_TOL = 1e-10

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)


def fully_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128) / dim


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix on A (2^n_qubits dims) tensor E (dim_e dims).

    The joint index is a * dim_e + e. Construction validates hermiticity
    and unit trace to 1e-12 and eigenvalue floor -1e-10.
    """

    n_qubits: int
    dim_e: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1 or self.dim_e < 1:
            raise PreconditionError("need n_qubits >= 1 and dim_e >= 1")
        d = self.dim
        if self.mat.shape != (d, d):
            raise LengthError(
                f"state matrix must be {d}x{d}, got {self.mat.shape}")
        if np.max(np.abs(self.mat - self.mat.conj().T)) > STRUCT_TOL:
            raise PreconditionError("state is not Hermitian within 1e-12")
        if abs(np.trace(self.mat).real - 1.0) > STRUCT_TOL:
            raise PreconditionError("state trace differs from 1 beyond 1e-12")
        if np.min(np.linalg.eigvalsh(self.mat)) < -IDENTITY_TOL:
            raise PreconditionError("state has an eigenvalue below -1e-10")

    @property
    def dim_a(self) -> int:
        return 1 << self.n_qubits

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_e

    def reduced_a(self) -> np.ndarray:
        """Trace out E."""
        t = self.mat.reshape(self.dim_a, self.dim_e, self.dim_a, self.dim_e)
        return np.einsum("abcb->ac", t)

    def reduced_e(self) -> np.ndarray:
        """Trace out A."""
        t = self.mat.reshape(self.dim_a, self.dim_e, self.dim_a, self.dim_e)
        return np.einsum("abac->bc", t)

    def with_matrix(self, mat: np.ndarray) -> "BipartiteState":
        return BipartiteState(self.n_qubits, self.dim_e, mat)


@dataclass(frozen=True)
class PauliKey:
    """2n-bit key beta = s || q: s in the low n bits, q in the high n."""

    beta: BitPoly

    def __post_init__(self) -> None:
        if self.beta.nbits < 2 or self.beta.nbits % 2:
            raise LengthError(
                f"Pauli key needs an even positive bit count, got {self.beta.nbits}")

    @property
    def n(self) -> int:
        return self.beta.nbits // 2

    def s_bit(self, j: int) -> int:
        return self.beta.bit(j)

    def q_bit(self, j: int) -> int:
        return self.beta.bit(self.n + j)

    def unitary(self) -> np.ndarray:
        """X^{s_j} Z^{q_j} per qubit (X applied after Z), qubit j on bit j."""
        factors = []
        for j in reversed(range(self.n)):
            u = _I2
            if self.q_bit(j):
                u = _Z
            if self.s_bit(j):
                u = _X @ u
            factors.append(u)
        return reduce(np.kron, factors)


def qotp_apply(key: "PauliKey | BitPoly", state: BipartiteState) -> BipartiteState:
    """Conjugate the A side by the keyed Pauli string."""
    if isinstance(key, BitPoly):
        key = PauliKey(key)
    if key.n != state.n_qubits:
        raise LengthError(
            f"key covers {key.n} qubits, state has {state.n_qubits}")
    w = np.kron(key.unitary(), np.eye(state.dim_e, dtype=np.complex128))
    return state.with_matrix(w @ state.mat @ w.conj().T)


def full_qotp_average(state: BipartiteState,
                      max_qubits: int = 5) -> BipartiteState:
    """Exact average over all 2^(2n) Pauli keys."""
    n = state.n_qubits
    if n > max_qubits or state.dim_e > 4:
        raise BudgetError(
            f"full key average at n={n}, dim_e={state.dim_e} exceeds the "
            f"budget (n <= {max_qubits}, dim_e <= 4)")
    acc = np.zeros_like(state.mat)
    for beta in range(1 << (2 * n)):
        acc += qotp_apply(BitPoly(beta, 2 * n), state).mat
    return state.with_matrix(acc / (1 << (2 * n)))


def key_average(u: BitPoly, v: BitPoly, params: ExpansionParams,
                state: BipartiteState,
                max_keys: int = 1 << 12) -> BipartiteState:
    """Average of the padded state over the short key, at fixed (u, v)."""
    if params.mode is not Mode.QUANTUM:
        raise PreconditionError("key averaging needs quantum-mode sizes")
    if params.n != state.n_qubits:
        raise LengthError(
            f"sizes cover {params.n} qubits, state has {state.n_qubits}")
    if (1 << params.ell) > max_keys:
        raise BudgetError(
            f"2^ell = {1 << params.ell} keys exceeds the budget {max_keys}")
    acc = np.zeros_like(state.mat)
    for k in range(1 << params.ell):
        beta = expand_affine(BitPoly(k, params.ell), u, v, params)
        acc += qotp_apply(beta, state).mat
    return state.with_matrix(acc / (1 << params.ell))


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues; requires a Hermitian input, to 1e-8."""
    if np.max(np.abs(m - m.conj().T)) > 1e-8:
        raise PreconditionError(
            "trace_norm expects a Hermitian matrix; see singular_value_norm")
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def singular_value_norm(m: np.ndarray) -> float:
    """Sum of singular values; general matrices (slower path)."""
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def collision_entropy_term(state: BipartiteState,
                           sigma_e: np.ndarray) -> float:
    """Tr[rho (1 x sigma^-1/2) rho (1 x sigma^-1/2)] on sigma's support.

    sigma_e must dominate the E marginal: the part of rho^E lying in
    sigma's kernel must vanish (within 1e-10), otherwise the conditional
    collision quantity is undefined and a DominationError is raised.
    """
    de = state.dim_e
    if sigma_e.shape != (de, de):
        raise LengthError(f"sigma must be {de}x{de}, got {sigma_e.shape}")
    if np.max(np.abs(sigma_e - sigma_e.conj().T)) > 1e-10:
        raise PreconditionError("sigma must be Hermitian")
    w, vecs = np.linalg.eigh(sigma_e)
    if np.min(w) < -IDENTITY_TOL:
        raise PreconditionError("sigma has an eigenvalue below -1e-10")
    cutoff = np.max(w) * 1e-12
    kept = w > cutoff
    if not np.any(kept):
        raise DominationError("sigma is numerically zero")
    vk = vecs[:, kept]
    rho_e = state.reduced_e()
    leak = float(np.trace(rho_e).real
                 - np.trace(vk.conj().T @ rho_e @ vk).real)
    if leak > IDENTITY_TOL:
        raise DominationError(
            f"rho^E has mass {leak:.3e} outside sigma's support")
    inv_sqrt = vk @ np.diag(1.0 / np.sqrt(w[kept])) @ vk.conj().T
    s = np.kron(np.eye(state.dim_a, dtype=np.complex128), inv_sqrt)
    val = np.trace(state.mat @ s @ state.mat @ s)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise PreconditionError(
            f"collision term has imaginary part {val.imag:.3e}")
    return float(val.real)


def random_state(n_qubits: int, dim_e: int, kind: str,
                 seed: int) -> BipartiteState:
    """Seeded test states: pure, mixed, product (pure x pure), max_entangled."""
    rng = np.random.default_rng(seed)
    dim_a = 1 << n_qubits
    dim = dim_a * dim_e

    def haar_vector(d: int) -> np.ndarray:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return v / np.linalg.norm(v)

    if kind == "pure":
        psi = haar_vector(dim)
        mat = np.outer(psi, psi.conj())
    elif kind == "mixed":
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
    elif kind == "product":
        pa = haar_vector(dim_a)
        pe = haar_vector(dim_e)
        mat = np.kron(np.outer(pa, pa.conj()), np.outer(pe, pe.conj()))
    elif kind == "max_entangled":
        d = min(dim_a, dim_e)
        if d < 2:
            raise PreconditionError(
                "max_entangled needs both sides of dimension >= 2")
        psi = np.zeros(dim, dtype=np.complex128)
        for i in range(d):
            psi[i * dim_e + i] = 1.0 / math.sqrt(d)
        mat = np.outer(psi, psi.conj())
    else:
        raise PreconditionError(
            f"kind must be pure/mixed/product/max_entangled, got {kind!r}")
    return BipartiteState(n_qubits, dim_e, mat.astype(np.complex128))


def random_matrix_function(n: int, dim: int,
                           seed: int) -> list[np.ndarray]:
    """Seeded map from 2n-bit strings to complex dim x dim matrices."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(1 << (2 * n)):
        out.append(rng.normal(size=(dim, dim))
                   + 1j * rng.normal(size=(dim, dim)))
    return out


def check_full_randomization(state: BipartiteState) -> Check:
    """Average over all keys lands on (fully mixed) x rho^E."""
    avg = full_qotp_average(state)
    target = np.kron(fully_mixed(state.dim_a), state.reduced_e())
    dist = trace_norm(avg.mat - target)
    return Check("full-randomization",
                 {"n": state.n_qubits, "dim_e": state.dim_e},
                 dist <= IDENTITY_TOL, dist, IDENTITY_TOL)


def check_v_average_mixes(u: BitPoly, params: ExpansionParams,
                          state: BipartiteState) -> Check:
    """For fixed u, the v-average of key averages is already fully mixed."""
    tail = params.tail_len
    acc = np.zeros_like(state.mat)
    for v in range(1 << tail):
        acc += key_average(u, BitPoly(v, tail), params, state).mat
    acc /= 1 << tail
    target = np.kron(fully_mixed(state.dim_a), state.reduced_e())
    dist = trace_norm(acc - target)
    return Check("v-average-mixes",
                 {"n": params.n, "ell": params.ell, "u": u.value,
                  "dim_e": state.dim_e},
                 dist <= IDENTITY_TOL, dist, IDENTITY_TOL)


def check_pair_moment_identity(n: int, ell: int,
                               f: Sequence[np.ndarray] | None = None,
                               seed: int = 0, dim: int = 4) -> Check:
    """Second-moment identity for pairs of expanded keys.

    With b(k, u, v) the expanded key and f any matrix-valued function of
    2n-bit strings:

        E_{k,k',u,v} f(b(k,u,v)) f(b(k',u,v))
          = 2^-ell E_beta f(beta)^2 + (E_beta f)^2
            - 2^-ell E_k (E_g f(k||g))^2

    Verified entrywise against exact enumeration of both sides; the
    tolerance scales with the largest |f| entry squared.
    """
    if n > 3:
        raise BudgetError(f"pair-moment enumeration limited to n <= 3, got {n}")
    if f is None:
        f = random_matrix_function(n, dim, seed)
    if len(f) != 1 << (2 * n):
        raise LengthError(
            f"f must map all {1 << (2 * n)} strings, got {len(f)} entries")
    if f[0].shape[0] > 8:
        raise BudgetError("matrix dimension limited to 8")
    params = ExpansionParams.quantum(n, ell)
    lam, tail = params.lam, params.tail_len
    d = f[0].shape[0]

    lhs = np.zeros((d, d), dtype=np.complex128)
    for u in range(1 << lam):
        up = BitPoly(u, lam)
        for v in range(1 << tail):
            vp = BitPoly(v, tail)
            s_uv = np.zeros((d, d), dtype=np.complex128)
            for k in range(1 << ell):
                beta = expand_affine(BitPoly(k, ell), up, vp, params)
                s_uv += f[beta.value]
            lhs += s_uv @ s_uv
    lhs /= (1 << (lam + tail)) * (1 << ell) ** 2

    nstrings = 1 << (2 * n)
    mean = sum(f) / nstrings
    second = sum(fb @ fb for fb in f) / nstrings
    inner = np.zeros((d, d), dtype=np.complex128)
    for k in range(1 << ell):
        t_k = np.zeros((d, d), dtype=np.complex128)
        for g in range(1 << tail):
            t_k += f[k | (g << ell)]
        t_k /= 1 << tail
        inner += t_k @ t_k
    inner /= 1 << ell
    rhs = second / (1 << ell) + mean @ mean - inner / (1 << ell)

    scale = max(float(np.max(np.abs(fb))) for fb in f) ** 2
    residual = float(np.max(np.abs(lhs - rhs)))
    bound = IDENTITY_TOL * scale
    return Check("pair-moment-identity",
                 {"n": n, "ell": ell, "lam": lam, "dim": d, "seed": seed},
                 residual <= bound, residual, bound)


def check_trace_norm_bound(params: ExpansionParams, state: BipartiteState,
                           sigma_list: Sequence[np.ndarray]) -> Check:
    """E_uv || R_uv(rho) - mixed x rho^E ||_1 <= per-sigma ceiling.

    The left side is enumerated exactly over all (u, v, k). Each sigma
    yields the ceiling sqrt(2^(n-ell) Tr[sigma] Tr[rho s rho s]) with
    s = 1 x sigma^-1/2; the inequality is proved for every sigma, so
    each entry is a hard check. Product states additionally satisfy
    the closed-form ceiling sqrt(2^(n-ell) Tr[(rho^A)^2]).

    The check's value is the left side and its bound the smallest of
    these ceilings; it passes iff value <= bound * (1 + 1e-9), that is,
    iff every ceiling holds.
    """
    if params.mode is not Mode.QUANTUM:
        raise PreconditionError("the bound concerns quantum-mode sizes")
    if params.n > 3 or state.dim_e > 4:
        raise BudgetError(
            f"bound check limited to n <= 3 and dim_e <= 4, got "
            f"n={params.n}, dim_e={state.dim_e}")
    if params.n != state.n_qubits:
        raise LengthError("params and state disagree on qubit count")
    if not sigma_list:
        raise PreconditionError("need at least one sigma candidate")
    lam, tail = params.lam, params.tail_len
    target = np.kron(fully_mixed(state.dim_a), state.reduced_e())
    total = 0.0
    for u in range(1 << lam):
        up = BitPoly(u, lam)
        for v in range(1 << tail):
            avg = key_average(up, BitPoly(v, tail), params, state)
            total += trace_norm(avg.mat - target)
    lhs = total / (1 << (lam + tail))

    factor = 2.0 ** (params.n - params.ell)
    bounds = [math.sqrt(factor * float(np.trace(sigma).real)
                        * collision_entropy_term(state, sigma))
              for sigma in sigma_list]
    context = {"n": params.n, "ell": params.ell, "dim_e": state.dim_e,
               "sigmas": len(bounds)}

    rho_a = state.reduced_a()
    if np.max(np.abs(state.mat - np.kron(rho_a, state.reduced_e()))) \
            <= IDENTITY_TOL:
        purity_a = float(np.trace(rho_a @ rho_a).real)
        context["product_bound"] = math.sqrt(factor * purity_a)
        bounds.append(context["product_bound"])

    bound = min(bounds)
    return Check("trace-norm-bound", context,
                 lhs <= bound * (1.0 + 1e-9), lhs, bound)
