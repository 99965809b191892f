"""Seeded golden vectors at production sizes.

The wire golden in test_wire.py is 16 bits wide, two bytes for the
8-bit windowed comb; these vectors pin the ciphertext bytes, the modulus
choice and the gate counts at sizes where the comb runs over hundreds of
bytes and the Karatsuba count model over several levels. They use only
the public API, so any refactor of the kernels or the expansion must
reproduce them byte for byte.
"""

import hashlib

import pytest

from entroseal.bench import Method, count_expansion
from entroseal.cipher import (SchemeParams, decrypt, encrypt, gen,
                              quantum_keytag, serialize)
from entroseal.gf2 import Backend, OpCount, find_irreducible
from entroseal.rng import RandomSource

# The README example: n = 4096, t = 2048, eps = 2^-40 gives ell = lambda
# = 2123, a table modulus, and a product of two 266-byte operands.
CLASSICAL = dict(n=4096, t=2048, epsilon=2.0 ** -40, mode="classical")
CLASSICAL_SHA256 = (
    "fc42d09056b7bcdc5a023cf80e8c9c2db8b36cd2ce47f04bbc304305881daae0")

# A quantum key tag for 1024 qubits at t = 0, eps = 2^-5: ell = lambda =
# 1037 (a table modulus), tail 1011, Pauli key string 2048 bits.
QUANTUM = dict(n=1024, t=0, epsilon=2.0 ** -5, mode="quantum")
QUANTUM_SHA256 = (
    "36fe58f5b5b125e0b164a13bb625507d889b2f011c491c0bfb29ecf665f852c3")

COUNTS = {
    ("classical", Method.AFFINE, Backend.SCHOOLBOOK): OpCount(4507129, 4513405),
    ("classical", Method.AFFINE, Backend.KARATSUBA): OpCount(232763, 1283117),
    ("classical", Method.FULLMUL_CLASSICAL, Backend.SCHOOLBOOK):
        OpCount(16777216, 16785517),
    ("classical", Method.FULLMUL_CLASSICAL, Backend.KARATSUBA):
        OpCount(531441, 3172372),
    ("quantum", Method.AFFINE, Backend.SCHOOLBOOK): OpCount(1075369, 1078503),
    ("quantum", Method.AFFINE, Backend.KARATSUBA): OpCount(68777, 390371),
    ("quantum", Method.FULLMUL_QUANTUM, Backend.SCHOOLBOOK):
        OpCount(4194304, 4198477),
    ("quantum", Method.FULLMUL_QUANTUM, Backend.KARATSUBA):
        OpCount(177147, 1054768),
}

# Non-leading exponents of the modulus for every field the vectors above
# use; all four are served from the modulus table, and 4096 was recorded
# from the live scan (no trinomial exists at a multiple of 8).
MODULI = {
    1037: (12, 7, 2, 0),
    2048: (19, 14, 13, 0),
    2123: (14, 11, 3, 0),
    4096: (27, 15, 1, 0),
}

# SHA-256s over the non-leading exponents of scanned moduli, none a table
# entry. The scan only ever skips reducible candidates early: trinomials
# Swan's theorem proves reducible (from their exponents alone), the
# small-factor sieve, the Frobenius walk's early small-factor gcds from
# degree 240 up, and the trinomial cut at lambda/2. So no change to it may
# move a modulus. The first covers every lambda in 1..160 and four larger
# degrees.
SCANNED_LAMS = (*range(1, 161), 171, 315, 411, 603)
SCANNED_MODULI_SHA256 = (
    "9bcbb791075bcf531c451e986b304005ea22e63dc729d0016be3266d67b90fa4")

# The second covers the benchmark's cold degrees, 171 + 48 i for
# i = 0..19 (all 3 mod 8), one even degree and one degree 1 mod 8 above
# 512; it was recorded from a scan without Swan's rule.
COLD_LAMS = (*range(171, 1084, 48), 1002, 1001)
COLD_MODULI_SHA256 = (
    "091ab1649c5c09a6e6728f2a439d2154384c408715c0a05f37aeb62e890ba955")


def test_classical_ciphertext_golden():
    params = SchemeParams.derive(**CLASSICAL)
    assert (params.ell, params.expansion.lam) == (2123, 2123)
    rng = RandomSource(2123)
    key = gen(params, rng)
    x = rng.bits(params.n)
    c = encrypt(key, x, params, rng)
    assert hashlib.sha256(serialize(c)).hexdigest() == CLASSICAL_SHA256
    assert decrypt(key, c) == x


def test_quantum_keytag_golden():
    params = SchemeParams.derive(**QUANTUM)
    assert (params.ell, params.expansion.lam) == (1037, 1037)
    rng = RandomSource(1037)
    key = gen(params, rng)
    c = quantum_keytag(key, params, rng)
    assert hashlib.sha256(serialize(c)).hexdigest() == QUANTUM_SHA256


@pytest.mark.parametrize("lam", sorted(MODULI))
def test_modulus_golden(lam):
    assert find_irreducible(lam).reduction_exponents == MODULI[lam]


def _moduli_digest(lams):
    exps = [find_irreducible(lam).reduction_exponents for lam in lams]
    return hashlib.sha256(repr(exps).encode()).hexdigest()


def test_scanned_moduli_golden():
    assert _moduli_digest(SCANNED_LAMS) == SCANNED_MODULI_SHA256


def test_cold_lambda_moduli_golden():
    assert _moduli_digest(COLD_LAMS) == COLD_MODULI_SHA256


@pytest.mark.parametrize("mode,method,backend", sorted(
    COUNTS, key=lambda k: (k[0], k[1].value, k[2].value)))
def test_gate_count_golden(mode, method, backend):
    sizing = CLASSICAL if mode == "classical" else QUANTUM
    params = SchemeParams.derive(**sizing).expansion
    assert count_expansion(method, params, backend) == COUNTS[
        (mode, method, backend)]
