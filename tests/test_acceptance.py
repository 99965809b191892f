"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints one PASS/FAIL line naming the criterion and its
headline numbers (visible with -s; the verbose test listing carries the
same verdict). Tolerances are pinned inline; exact-arithmetic checks
carry none.
"""

import random
from collections import Counter

import numpy as np
import pytest

from entroseal import statlab
from entroseal.bench import Method, count_expansion, time_expansion
from entroseal.cipher import (Ciphertext, decrypt, deserialize, encrypt,
                              encrypt_with, gen, serialize)
from entroseal.errors import FormatError, WireErrorCode
from entroseal.gf2 import (Backend, BitPoly, clmul, find_irreducible, gf_mul,
                          reduce_mod)
from entroseal.gf2ref import clmul_shift_xor, reduce_by_division
from entroseal.keyexpand import ExpansionParams
from entroseal.qlab import (check_full_randomization,
                            check_pair_moment_identity,
                            check_trace_norm_bound, check_v_average_mixes,
                            fully_mixed, random_state)
from entroseal.rng import RandomSource

BUDGET = 1 << 30


def _verdict(num: int, name: str, passed: bool, detail: str) -> str:
    status = "PASS" if passed else "FAIL"
    line = f"{status} criterion {num:02d} {name}: {detail}"
    print(line)
    return line


def _plaintext_families(n: int):
    fams = [("uniform", statlab.uniform(n)),
            ("point-mass", statlab.point_mass(n)),
            ("geometric", statlab.geometric(n))]
    fams += [(f"flat-2^{t}", statlab.flat_subset(n, t)) for t in range(n + 1)]
    return fams


def test_criterion_01_collision_bound():
    """Exact ciphertext collision probability <= 2^-2n (1 + 2^(n-ell) CP(X)).

    Grid: n in {3..6}, ell in {1..n}, four plaintext family shapes.
    Both sides are exact rationals, so the pinned 1e-15 tolerance is
    never consumed.
    """
    failures = []
    cases = 0
    for n in (3, 4, 5, 6):
        for ell in range(1, n + 1):
            params = ExpansionParams.classical(n, ell)
            for label, dx in _plaintext_families(n):
                rep = statlab.check_collision_bound(params, dx, BUDGET,
                                                    label=label)
                cases += 1
                if not rep.passed:
                    failures.append(rep.line())
    line = _verdict(1, "collision bound", not failures,
                    f"{cases} exact cases, grid n in 3..6")
    assert not failures, line + "; " + "; ".join(failures[:5])


def test_criterion_02_indistinguishability_chain():
    """Collision level implies distance to uniform, plus derived sizing.

    Part A re-walks the criterion-1 grid and checks delta(Y, uniform)^2
    <= eps*^2 with eps* defined by the measured collision probability
    (exact rationals; the 1e-12 slack is never consumed). Part B checks
    delta <= 8 eps at the derived key length on flat-2^t sources for
    every feasible small instance.
    """
    failures = []
    cases = 0
    for n in (3, 4, 5, 6):
        for ell in range(1, n + 1):
            params = ExpansionParams.classical(n, ell)
            for label, dx in _plaintext_families(n):
                rep = statlab.check_indistinguishability(params, dx, BUDGET,
                                                         label=label)
                cases += 1
                if not rep.passed:
                    failures.append(rep.line())
    sizing_cases = ((4, 3, 2.0 ** -4), (5, 3, 2.0 ** -4), (5, 4, 2.0 ** -4),
                    (6, 4, 2.0 ** -4), (6, 5, 2.0 ** -4))
    for n, t, eps in sizing_cases:
        rep = statlab.check_derived_sizing(n, t, eps, BUDGET)
        cases += 1
        if not rep.passed:
            failures.append(rep.line())
    line = _verdict(2, "indistinguishability chain", not failures,
                    f"{cases} cases incl. {len(sizing_cases)} derived sizings")
    assert not failures, line + "; " + "; ".join(failures[:5])


def _state_kinds(dim_e: int):
    if dim_e > 1:
        return ("pure", "mixed", "product", "max_entangled")
    return ("pure", "mixed", "product")


def test_criterion_03_full_key_average_mixes():
    """Averaging the Pauli masking over all 2^2n keys leaves tau x rho^E.

    n in {1,2,3} x dim_E in {1,2,4} x 20 seeded states; trace-norm
    deviation <= 1e-10 each.
    """
    worst = 0.0
    failures = []
    for n in (1, 2, 3):
        for dim_e in (1, 2, 4):
            kinds = _state_kinds(dim_e)
            for i in range(20):
                seed = 1000 * n + 100 * dim_e + i
                state = random_state(n, dim_e, kinds[i % len(kinds)], seed)
                rep = check_full_randomization(state)
                worst = max(worst, rep.value)
                if not rep.passed:
                    failures.append(rep.line())
    line = _verdict(3, "full key average", not failures,
                    f"180 states, worst deviation {worst:.2e} <= 1e-10")
    assert not failures, line


def test_criterion_04_v_average_mixes_for_every_u():
    """Fixing u and averaging only over v still mixes the data register.

    n in {1,2}, every ell <= 2n, every u value, 10 seeded states,
    trace-norm deviation <= 1e-10.
    """
    worst = 0.0
    failures = []
    cases = 0
    for n in (1, 2):
        for ell in range(1, 2 * n + 1):
            params = ExpansionParams.quantum(n, ell)
            kinds = _state_kinds(2)
            for i in range(10):
                state = random_state(n, 2, kinds[i % 4], 2000 + 10 * ell + i)
                for u in range(1 << params.lam):
                    rep = check_v_average_mixes(BitPoly(u, params.lam),
                                                params, state)
                    cases += 1
                    worst = max(worst, rep.value)
                    if not rep.passed:
                        failures.append(rep.line())
    line = _verdict(4, "per-u v-average", not failures,
                    f"{cases} (u, state) cases, worst {worst:.2e} <= 1e-10")
    assert not failures, line


def test_criterion_05_pair_moment_identity():
    """Second-moment identity for pairs of expanded keys, 50 seeded f.

    Covers both width branches (lam = ell and lam = 2n - ell) across
    n in {1,2}; residual <= 1e-10 x scale.
    """
    combos = [((2, 1), 13), ((2, 4), 13), ((1, 1), 12), ((1, 2), 12)]
    dims = (2, 3, 4)
    failures = []
    cases = 0
    for (n, ell), quota in combos:
        for i in range(quota):
            rep = check_pair_moment_identity(
                n, ell, seed=3000 + 50 * n + 10 * ell + i,
                dim=dims[i % len(dims)])
            cases += 1
            if not rep.passed:
                failures.append(rep.line())
    line = _verdict(5, "pair-moment identity", not failures,
                    f"{cases} seeded matrix functions over both width branches")
    assert cases == 50 and not failures, line


def test_criterion_06_trace_norm_bound_per_sigma():
    """Residual trace norm <= sqrt(2^(n-ell) Tr[sigma] Tr[rho s rho s]).

    n in {1,2}, ell in {1..2n}, 10 seeded states (max-entangled ones
    included) x 22 sigma candidates each, relative tolerance 1e-9;
    product states additionally satisfy the closed-form purity ceiling.
    """
    rng = np.random.default_rng(0xC6)
    failures = []
    cases = 0
    product_cases = 0
    for n in (1, 2):
        for ell in range(1, 2 * n + 1):
            params = ExpansionParams.quantum(n, ell)
            kinds = _state_kinds(2)
            for i in range(10):
                state = random_state(n, 2, kinds[i % 4], 4000 + 10 * ell + i)
                sigmas = [state.reduced_e(), fully_mixed(2)]
                for j in range(20):
                    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    s = g @ g.conj().T + 0.02 * np.eye(2)
                    if j % 5 == 0:
                        sigmas.append(s)  # unnormalized on purpose
                    else:
                        sigmas.append(s / np.trace(s).real)
                rep = check_trace_norm_bound(params, state, sigmas)
                cases += len(sigmas)
                if not rep.passed:
                    failures.append(rep.line())
                product_bound = dict(rep.context).get("product_bound")
                if product_bound is not None:
                    product_cases += 1
                    if not rep.value <= product_bound * (1 + 1e-9):
                        failures.append("product ceiling violated: "
                                        + rep.line())
    line = _verdict(6, "per-sigma trace-norm bound", not failures,
                    f"{cases} sigma cases, {product_cases} product ceilings")
    assert not failures, line + "; " + "; ".join(failures[:5])


def test_criterion_07_decrypt_inverts_encrypt():
    """Dec(k, Enc(k, x)) == x: exhaustive n <= 4, randomized n in {64, 1024}.

    Exhaustive part covers every (ell, k, x, u, v); randomized part runs
    10^4 trials per n spread over five key lengths. Zero failures
    tolerated.
    """
    failures = 0
    exhaustive = 0
    for n in range(1, 5):
        for ell in range(1, n + 1):
            params = ExpansionParams.classical(n, ell)
            for k in range(1 << ell):
                key = BitPoly(k, ell)
                for xv in range(1 << n):
                    x = BitPoly(xv, n)
                    for u in range(1 << params.lam):
                        for v in range(1 << params.tail_len):
                            c = encrypt_with(key, x, params,
                                             BitPoly(u, params.lam),
                                             BitPoly(v, params.tail_len))
                            exhaustive += 1
                            if decrypt(key, c) != x:
                                failures += 1
    randomized = 0
    ells = {64: (1, 17, 32, 63, 64), 1024: (1, 400, 512, 1023, 1024)}
    for n, ell_list in ells.items():
        rng = RandomSource(7000 + n)
        for ell in ell_list:
            params = ExpansionParams.classical(n, ell)
            for _ in range(2000):
                key = gen(params, rng)
                x = rng.bits(n)
                c = encrypt(key, x, params, rng)
                randomized += 1
                if decrypt(key, c) != x:
                    failures += 1
    line = _verdict(7, "decryption correctness", failures == 0,
                    f"{exhaustive} exhaustive + {randomized} randomized, "
                    f"{failures} failures")
    assert failures == 0 and randomized == 20000, line


def test_criterion_08_cost_factor_two():
    """Halved field width vs full-width multiplication baseline.

    AND-count ratio >= 2.0 at matched sizing (t = 0, eps = 2^-5, so
    ell = n + 13) for 2n in {128, 512, 2048} under both backends, and
    median wall-clock ratio >= 1.5 at 2n = 2^15 (no backend: the one
    evaluation kernel is timed). The log3-constant comparison needs a
    ternary-tree backend this package does not build, so it is not
    asserted.
    """
    subchecks = []
    for backend in (Backend.SCHOOLBOOK, Backend.KARATSUBA):
        for two_n in (128, 512, 2048):
            n = two_n // 2
            params = ExpansionParams.quantum(n, n + 13)
            ours = count_expansion(Method.AFFINE, params, backend)
            base = count_expansion(Method.FULLMUL_QUANTUM, params, backend)
            ratio = base.ands / ours.ands
            subchecks.append((f"{backend.value} 2n={two_n} AND-ratio",
                              ratio, ratio >= 2.0))
    n = 1 << 14
    params = ExpansionParams.quantum(n, n + 13)
    ours = time_expansion(Method.AFFINE, params, reps=31,
                          rng=RandomSource(81))
    base = time_expansion(Method.FULLMUL_QUANTUM, params, reps=31,
                          rng=RandomSource(82))
    wall_ratio = base["wall_ns_median"] / ours["wall_ns_median"]
    subchecks.append(("2n=2^15 wall-clock ratio", wall_ratio,
                      wall_ratio >= 1.5))
    for name, ratio, ok in subchecks:
        print(f"  {'ok ' if ok else 'LOW'} {name}: {ratio:.3f}")
    failures = [f"{name} = {ratio:.3f}" for name, ratio, ok in subchecks
                if not ok]
    line = _verdict(8, "factor-two cost advantage", not failures,
                    "; ".join(f"{name} {ratio:.2f}"
                              for name, ratio, _ in subchecks))
    # The Karatsuba AND ratio at 2n = 128 is 2187/1337 = 1.64: recursive
    # gate counts grow too slowly between 77 and 128 bits for the factor
    # two to appear at that size. Left failing on purpose rather than
    # special-cased away; the larger sizes and the schoolbook comparisons
    # clear their thresholds. The wall-clock ratio sits at its 1.5 bar
    # and reads on either side of it: both products are one comb that
    # takes 64-bit steps over the 16397-bit key, 257 steps each, so the
    # ratio is what a table XOR at 32768 bits costs against one at 16397
    # (about 1.4-1.6), and the two runners are timed in separate blocks,
    # so a change in machine speed between the blocks moves it too.
    # Timing them interleaved, rep by rep, is no cure: it changes which
    # inputs and tables sit in cache, and moved the median by up to 0.15
    # in either direction.
    assert not failures, line


def test_criterion_09_field_arithmetic_oracles():
    """Field axioms, kernel equivalence, and reduction vs long division.

    Exhaustive for lam <= 4 (all triples); 10^3 randomized cases per
    lam in {8, 127, 243, 729}. Every comparison is exact.
    """
    bad = 0
    exhaustive = 0
    for lam in (1, 2, 3, 4):
        spec = find_irreducible(lam)
        size = 1 << lam
        one = BitPoly(1, lam)
        for a in range(size):
            pa = BitPoly(a, lam)
            if gf_mul(pa, one, spec) != pa:
                bad += 1
            for b in range(size):
                pb = BitPoly(b, lam)
                ab = gf_mul(pa, pb, spec)
                if ab != gf_mul(pb, pa, spec):
                    bad += 1
                for c in range(size):
                    pc = BitPoly(c, lam)
                    exhaustive += 1
                    if gf_mul(ab, pc, spec) != gf_mul(
                            pa, gf_mul(pb, pc, spec), spec):
                        bad += 1
                    if gf_mul(pa, pb ^ pc, spec) != (
                            gf_mul(pa, pb, spec) ^ gf_mul(pa, pc, spec)):
                        bad += 1
        for value in range(1 << min(2 * lam, 10)):
            width = 2 * lam
            p = BitPoly(value, width)
            if reduce_mod(p, spec).value != reduce_by_division(
                    value, spec.modulus.value):
                bad += 1
    rng = random.Random(0x909)
    randomized = 0
    for lam in (8, 127, 243, 729):
        spec = find_irreducible(lam)
        for _ in range(1000):
            a = BitPoly(rng.getrandbits(lam), lam)
            b = BitPoly(rng.getrandbits(lam), lam)
            c = BitPoly(rng.getrandbits(lam), lam)
            randomized += 1
            want = clmul_shift_xor(a.value, b.value)
            if clmul(a, b) != BitPoly(want, 2 * lam):
                bad += 1
            ab = gf_mul(a, b, spec)
            if ab != gf_mul(b, a, spec):
                bad += 1
            if gf_mul(ab, c, spec) != gf_mul(a, gf_mul(b, c, spec), spec):
                bad += 1
            if gf_mul(a, b ^ c, spec) != ab ^ gf_mul(a, c, spec):
                bad += 1
            width = rng.randrange(lam, 2 * lam + 1)
            p = BitPoly(rng.getrandbits(width), width)
            if reduce_mod(p, spec).value != reduce_by_division(
                    p.value, spec.modulus.value):
                bad += 1
    line = _verdict(9, "field arithmetic oracles", bad == 0,
                    f"{exhaustive} exhaustive triples + {randomized} "
                    f"randomized, {bad} mismatches")
    assert bad == 0 and randomized == 4000, line


GOLDEN_BLOB = bytes.fromhex(
    "455345310100100000000000000009000000000000000c005ec7fb")


def test_criterion_10_wire_format():
    """Golden-vector byte equality plus a 10^5-case deserializer fuzz.

    Every malformed input must raise FormatError with a declared code;
    every successful parse must re-serialize to the identical bytes.
    """
    params = ExpansionParams.classical(16, 9)
    rng = RandomSource(42)
    key = gen(params, rng)
    x = rng.bits(16)
    c = encrypt(key, x, params, rng)
    golden_ok = (serialize(c) == GOLDEN_BLOB
                 and serialize(deserialize(GOLDEN_BLOB)) == GOLDEN_BLOB
                 and decrypt(key, deserialize(GOLDEN_BLOB)) == x)

    fuzz = random.Random(0xF0CC5)
    outcomes: Counter = Counter()
    parsed_ok = 0
    for i in range(100_000):
        roll = fuzz.random()
        if roll < 0.35:
            blob = fuzz.randbytes(fuzz.randrange(0, 64))
        else:
            mutated = bytearray(GOLDEN_BLOB)
            for _ in range(fuzz.randrange(1, 5)):
                mutated[fuzz.randrange(len(mutated))] = fuzz.randrange(256)
            if roll < 0.55:
                mutated = mutated[:fuzz.randrange(0, len(mutated) + 1)]
            elif roll < 0.65:
                mutated += fuzz.randbytes(fuzz.randrange(1, 16))
            blob = bytes(mutated)
        try:
            parsed = deserialize(blob)
        except FormatError as exc:
            assert isinstance(exc.code, WireErrorCode), f"case {i}: {exc!r}"
            outcomes[exc.code.name] += 1
        else:
            parsed_ok += 1
            assert serialize(parsed) == blob, f"case {i} not canonical"
    classified = sum(outcomes.values())
    must_see = {"BAD_MAGIC", "TRUNCATED", "NONZERO_PADDING",
                "LENGTH_MISMATCH"}
    coverage_ok = must_see <= set(outcomes)
    passed = golden_ok and coverage_ok and parsed_ok > 0
    line = _verdict(10, "wire format", passed,
                    f"golden bytes {'ok' if golden_ok else 'BAD'}, "
                    f"{classified} rejects across {len(outcomes)} codes, "
                    f"{parsed_ok} clean parses")
    assert passed, line + f"; outcomes={dict(outcomes)}"
