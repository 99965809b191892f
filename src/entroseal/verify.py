"""The ``entroseal verify`` suites: exact checks of the paper's claims.

``gf2(seed)`` checks the field arithmetic the key expansion rests on
against the bit-serial judges in :mod:`entroseal.gf2ref`.
``classical(budget)`` checks the collision and indistinguishability
bounds by exact enumeration in :mod:`entroseal.statlab`, within
``budget`` weighted terms. ``quantum(seed)`` checks the pad identities
and the trace-norm bound in :mod:`entroseal.qlab`. Each suite returns
its checks in a fixed order, and the seed fixes every random draw. Each
imports its judges only when it runs, so only ``quantum`` loads numpy.

Every suite yields :class:`~entroseal._record.Check` records:
one ``PASS|FAIL name k=v ...`` line each, ending in
``: value=... <= bound=...`` when the check compares two numbers, or with
``--format json`` one object each, ``{"check", <context>, "value",
"bound", "passed"}``.
"""

from __future__ import annotations

import itertools
import random

from ._record import Check
from .gf2 import Backend, BitPoly, clmul, find_irreducible, gf_mul, reduce_mod
from .keyexpand import ExpansionParams


def gf2(seed: int) -> list[Check]:
    """Field arithmetic, the product kernel and the modulus search.

    The scan trusts Swan's rule and the parity test to drop only reducible
    candidates: if either dropped an irreducible one, a modulus lookup
    could scan for minutes or find none. So their two checks run first
    (they print in their usual place and draw nothing from the seeded
    stream), and if either fails, every check that looks up a modulus is
    reported FAIL without running, with ``skipped`` saying why.
    """
    from . import gf2ref
    from .bench import clmul_cost
    from .gf2 import _MODULUS_TABLE, _WIDE_COMB_BITS, _poly
    from .modulus import (_CHECKPOINT_FROM, _CHECKPOINTS, _SIEVE_DEGREE,
                          _frobenius_walk, _stickelberger_reducible,
                          _swan_reducible, is_irreducible)
    out = []
    rng = random.Random(seed)

    # Every trinomial Swan's rule drops from the scan is reducible.
    ok = True
    rejected = 0
    for n in range(2, 21):
        for k in range(1, n):
            if _swan_reducible(n, k):
                rejected += 1
                ok &= not gf2ref.irreducible_by_trial_division(
                    (1 << n) | (1 << k) | 1)
    trinomial = Check("trinomial-parity-vs-division",
                      {"n": "2..20", "k": "1..n-1", "rejected": rejected},
                      ok and rejected > 0)

    # Every pentanomial the parity test decides gets the verdict that
    # Berlekamp's factor count gives: dropped exactly when it has a
    # repeated factor or an even number of factors. It leaves one
    # undecided only when lam and a are both even.
    ok = True
    candidates = rejected = 0
    for lam in range(5, 25):
        for a, b, c in itertools.combinations(range(lam - 1, 0, -1), 3):
            candidates += 1
            verdict = _stickelberger_reducible(lam, a, b, c)
            if verdict is None:
                ok &= lam % 2 == 0 and a % 2 == 0
                continue
            count = gf2ref.factor_count_berlekamp(
                (1 << lam) | (1 << a) | (1 << b) | (1 << c) | 1)
            ok &= verdict == (count is None or count % 2 == 0)
            rejected += verdict
    pentanomial = Check("pentanomial-parity-vs-berlekamp",
                        {"lam": "5..24", "candidates": candidates,
                         "rejected": rejected}, ok and rejected > 0)

    trusted = trinomial.passed and pentanomial.passed
    skipped = {} if trusted else {"skipped": "parity-check-failed"}

    ok = trusted
    if trusted:
        for lam in (2, 3, 4):
            spec = find_irreducible(lam)
            size = 1 << lam
            for a in range(size):
                pa = BitPoly(a, lam)
                for b in range(size):
                    pb = BitPoly(b, lam)
                    ab = gf_mul(pa, pb, spec)
                    ok &= ab.value == gf_mul(pb, pa, spec).value
                    for c in range(size):
                        pc = BitPoly(c, lam)
                        left = gf_mul(ab, pc, spec).value
                        right = gf_mul(pa, gf_mul(pb, pc, spec), spec).value
                        ok &= left == right
                        dist = gf_mul(pa, pb ^ pc, spec).value
                        ok &= dist == (gf_mul(pa, pb, spec).value
                                       ^ gf_mul(pa, pc, spec).value)
    out.append(Check("field-axioms-exhaustive", {"lam": "2,3,4", **skipped},
                     ok))

    ok = trusted
    if trusted:
        for lam in (5, 8):
            spec = find_irreducible(lam)
            for a in range(1, 1 << lam):
                pa = BitPoly(a, lam)
                if not any(gf_mul(pa, BitPoly(b, lam), spec).value == 1
                           for b in range(1, 1 << lam)):
                    ok = False
    out.append(Check("inverses-exist-exhaustive", {"lam": "5,8", **skipped},
                     ok))

    # The kernel, which swaps its operands by width, against the shift-xor
    # reference on every draw. The bit-serial reference of each cost model
    # checks value and gate counts on a pair's first draw: its counts
    # depend on the widths alone.
    ok = True
    pairs = ((8, 8), (64, 64), (243, 243), (13, 201), (201, 13), (65, 7))
    for na, nb in pairs:
        cs = clmul_cost(na, nb, Backend.SCHOOLBOOK)
        ck = clmul_cost(na, nb, Backend.KARATSUBA)
        for i in range(200):
            a, b = rng.getrandbits(na), rng.getrandbits(nb)
            p = clmul(BitPoly(a, na), BitPoly(b, nb)).value
            ok &= p == gf2ref.clmul_shift_xor(a, b)
            if i == 0:
                ok &= gf2ref.clmul_schoolbook_counted(a, na, b, nb) == (
                    p, cs.ands, cs.xors)
                ok &= gf2ref.clmul_karatsuba_counted(a, b, max(na, nb)) == (
                    p, ck.ands, ck.xors)
    # Values only past the comb's 8-bit windows, where the counted
    # references are too slow: a product on 64-bit steps just past their
    # switch, the same steps over a 92160-bit table, a product of two
    # operands near the widest table degree (32768), and a wide operand
    # against one narrow enough for 4-bit windows over several blocks.
    # Their own stream keeps the draws of the others.
    wide = _WIDE_COMB_BITS
    wide_pairs = ((wide + 5, wide + 5), (92160, wide + 1),
                  (30723, 30723), (61449, 301))
    wide_rng = random.Random(f"wide-{seed}")
    for na, nb in wide_pairs:
        for _ in range(3):
            a, b = wide_rng.getrandbits(na), wide_rng.getrandbits(nb)
            p = clmul(BitPoly(a, na), BitPoly(b, nb)).value
            ok &= p == gf2ref.clmul_shift_xor(a, b)
    out.append(Check("backend-equivalence",
                     {"pairs": ",".join(f"{na}x{nb}" for na, nb in pairs),
                      "draws": 200, "counted_draws": 1,
                      "value_pairs": ",".join(f"{na}x{nb}"
                                              for na, nb in wide_pairs),
                      "value_draws": 3}, ok))

    ok = trusted
    if trusted:
        for lam in (8, 127, 243):
            spec = find_irreducible(lam)
            for _ in range(200):
                width = rng.randrange(lam, 2 * lam + 1)
                p = BitPoly(rng.getrandbits(width), width)
                rem = reduce_mod(p, spec)
                ok &= rem.value == gf2ref.reduce_by_division(
                    p.value, spec.modulus.value)
    out.append(Check("reduce-vs-longdiv",
                     {"lam": "8,127,243", "draws": 200, **skipped}, ok))

    ok = trusted
    if trusted:
        for lam in range(1, 17):
            got = find_irreducible(lam).modulus.value
            ok &= got == gf2ref.smallest_irreducible_lowweight_exhaustive(lam)
            ok &= is_irreducible(BitPoly(got, lam + 1))
    out.append(Check("modulus-scan-vs-oracle", {"lam": "1..16", **skipped},
                     ok))

    # Every table modulus has one irreducible factor by Berlekamp's count,
    # which shares no code with the walk that chose it.
    ok = all(gf2ref.factor_count_berlekamp(_poly(lam, rest)) == 1
             for lam, rest in _MODULUS_TABLE.items())
    out.append(Check("modulus-table-vs-berlekamp",
                     {"lam": ",".join(map(str, _MODULUS_TABLE))}, ok))

    out += [trinomial, pentanomial]

    # The Frobenius walk must reject a planted factor of degree from one
    # above the sieve's reach up to D at its first checkpoint at or above
    # the least degree of f's factors (the cofactor's by the reference);
    # division confirms the factor. A product of the wrong degree is a
    # failed draw: the walk's fold would never end on it.
    ok = trusted
    top = _CHECKPOINTS[-1]
    low = _SIEVE_DEGREE + 1
    lams = (_CHECKPOINT_FROM, 302, 411)
    if trusted:
        for lam in lams:
            for d in (low, 24, top):
                g = find_irreducible(d).modulus.value
                cofactors = (find_irreducible(lam - d).modulus.value,
                             (1 << (lam - d)) | rng.getrandbits(lam - d) | 1)
                for h in cofactors:
                    f = clmul(BitPoly(g, d + 1), BitPoly(h, lam - d + 1)).value
                    if f.bit_length() != lam + 1:
                        ok = False
                        continue
                    least = min(d, gf2ref.smallest_factor_degree(h, d) or d)
                    ok &= _frobenius_walk(f, lam) == next(
                        c for c in _CHECKPOINTS if least <= c)
                    ok &= gf2ref.polydivmod(f, g)[1] == 0
    out.append(Check("early-abort-vs-division",
                     {"lam": ",".join(map(str, lams)),
                      "deg_g": f"{low},24,{top}", "cofactors": 2,
                      "checkpoints": ",".join(map(str, _CHECKPOINTS)),
                      **skipped}, ok))
    return out


def classical(budget: int) -> list[Check]:
    """The classical bounds, exact, at n = 3, 4 and every ell <= n, each
    enumeration within ``budget`` weighted terms."""
    from . import statlab
    out = []
    for n in (3, 4):
        for ell in range(1, n + 1):
            params = ExpansionParams.classical(n, ell)
            families = [("uniform", statlab.uniform(n)),
                        ("point-mass", statlab.point_mass(n)),
                        ("geometric", statlab.geometric(n))]
            families += [(f"flat-2^{t}", statlab.flat_subset(n, t))
                         for t in range(n + 1)]
            for label, dx in families:
                out.append(statlab.check_collision_bound(
                    params, dx, budget, label=label))
                out.append(statlab.check_indistinguishability(
                    params, dx, budget, label=label))
    for n, t, eps in ((4, 3, 2.0 ** -4), (5, 4, 2.0 ** -4)):
        out.append(statlab.check_derived_sizing(n, t, eps, budget))
    return out


def quantum(seed: int) -> list[Check]:
    """The quantum pad identities and the trace-norm bound, n <= 2."""
    import numpy as np
    from . import qlab
    out = []
    for n, dim_e in ((1, 2), (2, 2)):
        for idx in range(3):
            kind = ("pure", "mixed", "max_entangled")[idx]
            state = qlab.random_state(n, dim_e, kind, seed + idx)
            out.append(qlab.check_full_randomization(state))
    for n in (1, 2):
        for ell in range(1, 2 * n + 1):
            params = ExpansionParams.quantum(n, ell)
            state = qlab.random_state(n, 2, "mixed", seed + 10 + n)
            for u in range(1 << params.lam):
                out.append(qlab.check_v_average_mixes(
                    BitPoly(u, params.lam), params, state))
    for n in (1, 2):
        for ell in range(1, 2 * n + 1):
            out.append(qlab.check_pair_moment_identity(
                n, ell, seed=seed + ell, dim=3))
    rng = np.random.default_rng(seed)
    for n in (1, 2):
        for ell in range(1, 2 * n + 1):
            params = ExpansionParams.quantum(n, ell)
            for kind in ("pure", "product", "max_entangled"):
                state = qlab.random_state(n, 2, kind, seed + 20)
                sigmas = [state.reduced_e(), qlab.fully_mixed(state.dim_e)]
                for _ in range(3):
                    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    s = g @ g.conj().T
                    sigmas.append(s / np.trace(s).real)
                out.append(qlab.check_trace_norm_bound(params, state, sigmas))
    return out
