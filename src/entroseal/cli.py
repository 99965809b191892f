"""Command-line surface: parameter derivation, file encryption,
verification suites, and benchmarks.

Exit codes: 0 success, 1 verification found a failing check,
2 bad parameters or an unsupported configuration, 3 key file too short,
4 malformed ciphertext, 5 file I/O problems or a failed OS randomness
source, 6 internal error (any other library error).

``encrypt`` and ``decrypt`` load only ``argparse`` and the core modules
(``cipher``, ``keyexpand``, ``gf2``, ``rng``, ``errors``); no
``dataclasses``, ``json`` or numpy. The other subcommands import what
they need when they run: ``json`` for JSON output, the benchmark module
for ``bench`` (and for ``--methods``), and the exact labs for ``verify``
(``verify quantum`` also numpy). Only ``verify classical`` reads the
enumeration budget (``--budget`` or ``ENTROSEAL_BUDGET``).

Every ``verify`` suite yields :class:`~entroseal._record.Check` records:
one ``PASS|FAIL name k=v ...`` line each, ending in
``: value=... <= bound=...`` when the check compares two numbers, or with
``--format json`` one object each, ``{"check", <context>, "value",
"bound", "passed"}``.
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import stat
import sys

from ._record import Check
from .cipher import (SchemeParams, decrypt, deserialize, encrypt,
                     indistinguishability_key_length, serialize)
from .errors import (BudgetError, ConfigurationError, DominationError,
                     EntropyError, EntrosealError, FormatError, ParameterError,
                     PreconditionError)
from .gf2 import (Backend, BitPoly, clmul, clmul_cost, find_irreducible,
                  gf_mul, is_irreducible, reduce_mod)
from .keyexpand import ExpansionParams, Mode
from .rng import RandomSource

_DISCLAIMER = (
    "Security is conditional: the guarantee holds only if the supplied "
    "--t is a genuine lower bound on the plaintext's min-entropy from the "
    "adversary's point of view. The tool never estimates entropy and "
    "cannot detect an overclaimed t."
)


class ShortKeyError(EntrosealError):
    """Key file does not contain enough bits."""


def _parse_epsilon(text: str) -> float:
    """Accept plain floats and powers of two like 2^-40 or 2**-40.

    A positive spelling that underflows to 0.0 is refused: the smallest
    float is 2^-1074.
    """
    s = text.strip()
    power = next((s[len(p):] for p in ("2^", "2**") if s.startswith(p)),
                 None)
    try:
        value = float(s) if power is None else 2.0 ** int(power)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"epsilon must be a float or 2^-k, got {text!r}") from exc
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(
            f"exponent too large in {text!r}") from exc
    if value == 0.0:
        from decimal import Decimal
        if power is not None or Decimal(s) > 0:
            raise argparse.ArgumentTypeError(
                f"{text!r} underflows to 0.0, below 2^-1074")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for an integer >= 0."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _list_of(parse_item):
    """argparse type for a comma-separated list parsed item by item."""
    def parse(text: str) -> list:
        try:
            items = [parse_item(s.strip()) for s in text.split(",")
                     if s.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if not items:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return items
    return parse


def _method(text: str):
    """argparse type for one bench method; loads the benchmark module."""
    from .bench import Method
    return Method(text)


def _default_budget() -> int:
    from . import statlab
    env = os.environ.get("ENTROSEAL_BUDGET")
    if not env:
        return statlab.DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        raise ParameterError(
            f"ENTROSEAL_BUDGET must be an integer, got {env!r}")
    if budget < 0:
        raise ParameterError(f"ENTROSEAL_BUDGET must be >= 0, got {budget}")
    return budget


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_file(path: str, data: bytes) -> None:
    """Overwrite ``path`` in place, then cut a regular file to ``data``.

    No ``O_TRUNC``: on ext4, truncating a file written moments ago waits
    for its write-back (tens of ms). A pipe, FIFO or tty has no length to
    cut, so only a regular file is truncated. Opening the descriptor in
    mode "wb" truncates nothing.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _load_key(path: str, ell: int) -> BitPoly:
    """First ell bits of the key file, little-endian bit order."""
    raw = _read_file(path)
    if 8 * len(raw) < ell:
        raise ShortKeyError(
            f"key file {path} holds {8 * len(raw)} bits, need {ell}")
    value = int.from_bytes(raw, "little") & ((1 << ell) - 1)
    return BitPoly(value, ell)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_params(args: argparse.Namespace) -> int:
    params = SchemeParams.derive(args.n_bits, args.t, args.epsilon, args.mode)
    out = {
        "n": params.n,
        "t": params.t,
        "epsilon": params.epsilon,
        "mode": params.mode.value,
        "ell": params.ell,
        "lambda": params.lam,
        "tail_len": params.tail_len,
        "out_len": params.out_len,
    }
    if params.mode is Mode.QUANTUM:
        try:
            out["indistinguishability_ell"] = indistinguishability_key_length(
                params.n, params.t, params.epsilon)
        except ParameterError:  # it rounds below 1 bit; the strict ell holds
            out["indistinguishability_ell"] = None
    if args.format == "json":
        import json
        print(json.dumps(out, indent=2))
    else:
        for k, v in out.items():
            print(f"{k} = {v}")
    return 0


def cmd_encrypt(args: argparse.Namespace) -> int:
    data = _read_file(args.input)
    if not data:
        raise ParameterError("refusing to encrypt an empty file (n = 0)")
    n = 8 * len(data)
    params = SchemeParams.derive(n, args.t, args.epsilon, Mode.CLASSICAL)
    key = _load_key(args.key, params.ell)
    x = BitPoly(int.from_bytes(data, "little"), n)
    rng = RandomSource(args.seed)
    c = encrypt(key, x, params, rng)
    _write_file(args.out, serialize(c))
    print(f"encrypted {len(data)} bytes: n={n} ell={params.ell} "
          f"lambda={params.lam}", file=sys.stderr)
    return 0


def cmd_decrypt(args: argparse.Namespace) -> int:
    c = deserialize(_read_file(args.input))
    key = _load_key(args.key, c.ell)
    plain = decrypt(key, c).to_bytes()
    _write_file(args.out, plain)
    print(f"decrypted to {len(plain)} bytes (n={c.n})", file=sys.stderr)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench as benchmod
    methods = args.methods or [benchmod.Method.AFFINE,
                               benchmod.baseline(args.mode)]
    records = []
    for n in args.sizes:
        params = SchemeParams.derive(n, args.t, args.epsilon, args.mode)
        for backend in args.backends:
            for method in methods:
                if args.reps:
                    records.append(benchmod.time_expansion(
                        method, params, backend, reps=args.reps,
                        rng=RandomSource(args.seed)))
                else:
                    records.append(benchmod.count_record(
                        method, params, backend))
    text, rows = benchmod.emit_table(records)
    if args.format == "json":
        import json
        print(json.dumps(rows, indent=2))
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _gf2_suite(seed: int) -> list[Check]:
    from . import gf2, gf2ref
    out = []
    rng = random.Random(seed)

    ok = True
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
    out.append(Check("field-axioms-exhaustive", {"lam": "2,3,4"}, ok))

    ok = True
    for lam in (5, 8):
        spec = find_irreducible(lam)
        for a in range(1, 1 << lam):
            pa = BitPoly(a, lam)
            if not any(gf_mul(pa, BitPoly(b, lam), spec).value == 1
                       for b in range(1, 1 << lam)):
                ok = False
    out.append(Check("inverses-exist-exhaustive", {"lam": "5,8"}, ok))

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
    wide = gf2._WIDE_COMB_BITS
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

    ok = True
    for lam in (8, 127, 243):
        spec = find_irreducible(lam)
        for _ in range(200):
            width = rng.randrange(lam, 2 * lam + 1)
            p = BitPoly(rng.getrandbits(width), width)
            rem = reduce_mod(p, spec)
            ok &= rem.value == gf2ref.reduce_by_division(
                p.value, spec.modulus.value)
    out.append(Check("reduce-vs-longdiv", {"lam": "8,127,243", "draws": 200},
                     ok))

    ok = True
    for lam in range(1, 17):
        got = find_irreducible(lam).modulus.value
        ok &= got == gf2ref.smallest_irreducible_lowweight_exhaustive(lam)
        ok &= is_irreducible(BitPoly(got, lam + 1))
    out.append(Check("modulus-scan-vs-oracle", {"lam": "1..16"}, ok))

    # Every table modulus has one irreducible factor by Berlekamp's count,
    # which shares no code with the walk that chose it.
    table = gf2._MODULUS_TABLE
    ok = all(gf2ref.factor_count_berlekamp(gf2._poly(lam, rest)) == 1
             for lam, rest in table.items())
    out.append(Check("modulus-table-vs-berlekamp",
                     {"lam": ",".join(map(str, table))}, ok))

    # Every trinomial Swan's rule drops from the scan is reducible.
    ok = True
    rejected = 0
    for n in range(2, 21):
        for k in range(1, n):
            if gf2._swan_reducible(n, k):
                rejected += 1
                ok &= not gf2ref.irreducible_by_trial_division(
                    (1 << n) | (1 << k) | 1)
    out.append(Check("trinomial-parity-vs-division",
                     {"n": "2..20", "k": "1..n-1", "rejected": rejected},
                     ok and rejected > 0))

    # Every pentanomial the parity test decides gets the verdict that
    # Berlekamp's factor count gives: dropped exactly when it has a
    # repeated factor or an even number of factors. It leaves one
    # undecided only when lam and a are both even.
    ok = True
    candidates = rejected = 0
    for lam in range(5, 25):
        for a, b, c in itertools.combinations(range(lam - 1, 0, -1), 3):
            candidates += 1
            verdict = gf2._stickelberger_reducible(lam, a, b, c)
            if verdict is None:
                ok &= lam % 2 == 0 and a % 2 == 0
                continue
            count = gf2ref.factor_count_berlekamp(
                (1 << lam) | (1 << a) | (1 << b) | (1 << c) | 1)
            ok &= verdict == (count is None or count % 2 == 0)
            rejected += verdict
    out.append(Check("pentanomial-parity-vs-berlekamp",
                     {"lam": "5..24", "candidates": candidates,
                      "rejected": rejected}, ok and rejected > 0))

    # The Frobenius walk must reject a planted factor of degree from one
    # above the sieve's reach up to D at its step-D checkpoint; division
    # confirms the factor. A product of the wrong degree is a failed draw:
    # the walk's fold would never end on it.
    ok = True
    top = gf2._PREFILTER_DEGREE
    low = gf2._SIEVE_DEGREE + 1
    for lam in (61, 130, 411):
        for d in (low, 24, top):
            g = find_irreducible(d).modulus.value
            cofactors = (find_irreducible(lam - d).modulus.value,
                         (1 << (lam - d)) | rng.getrandbits(lam - d) | 1)
            for h in cofactors:
                f = clmul(BitPoly(g, d + 1), BitPoly(h, lam - d + 1)).value
                if f.bit_length() != lam + 1:
                    ok = False
                    continue
                ok &= gf2._frobenius_walk(f, lam) == top
                ok &= gf2ref.polydivmod(f, g)[1] == 0
    out.append(Check("early-abort-vs-division",
                     {"lam": "61,130,411", "deg_g": f"{low},24,{top}",
                      "cofactors": 2, "reject_step": top}, ok))
    return out


def _classical_suite(budget: int) -> list[Check]:
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


def _quantum_suite(seed: int) -> list[Check]:
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


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "gf2":
        checks = _gf2_suite(args.seed)
    elif args.suite == "classical":
        # the classical suite is exact: it takes a budget, not a seed
        budget = _default_budget() if args.budget is None else args.budget
        checks = _classical_suite(budget)
    else:
        checks = _quantum_suite(args.seed)
    if args.format == "json":
        import json
        print(json.dumps([c.to_dict() for c in checks], indent=2))
    else:
        for c in checks:
            print(c.line())
    failed = [c for c in checks if not c.passed]
    summary = f"{len(checks) - len(failed)}/{len(checks)} checks passed"
    print(summary, file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroseal",
        description="Entropically secure encryption with short keys.",
        epilog=_DISCLAIMER)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derive and print scheme parameters",
                       epilog=_DISCLAIMER)
    p.add_argument("--n-bits", type=int, required=True,
                   help="plaintext length in bits (qubits for quantum mode)")
    p.add_argument("--t", type=float, required=True,
                   help="assumed min-entropy lower bound in bits")
    p.add_argument("--epsilon", type=_parse_epsilon, required=True,
                   help="security parameter in (0,1]; accepts 2^-k")
    p.add_argument("--mode", type=Mode, default=Mode.CLASSICAL,
                   choices=list(Mode), metavar="{classical,quantum}")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("encrypt", help="encrypt a file (classical mode)",
                       epilog=_DISCLAIMER)
    p.add_argument("input", help="plaintext file; n = 8 * its size")
    p.add_argument("--key", required=True,
                   help="key file supplying at least ell raw bits")
    p.add_argument("--t", type=float, required=True,
                   help="assumed plaintext min-entropy in bits (no default "
                        "on purpose: a default would fabricate security)")
    p.add_argument("--epsilon", type=_parse_epsilon, required=True)
    p.add_argument("--out", required=True, help="ciphertext output path")
    p.add_argument("--seed", type=_non_negative_int, default=None,
                   help="seed the (u,v) draw; testing only")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("input", help="ciphertext file in the wire format")
    p.add_argument("--key", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("gf2", "classical", "quantum"))
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--budget", type=_non_negative_int, default=None,
                   help="enumeration budget in weighted terms "
                        "(default: ENTROSEAL_BUDGET or 2^30)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="count gates and time key expansion")
    p.add_argument("--sizes", type=_list_of(int), default="64,256,1024",
                   help="comma-separated n values")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--epsilon", type=_parse_epsilon, default=2.0 ** -5)
    p.add_argument("--mode", type=Mode, default=Mode.QUANTUM,
                   choices=list(Mode), metavar="{classical,quantum}")
    p.add_argument("--methods", type=_list_of(_method), default=None,
                   help="comma-separated subset of affine,"
                        "fullmul-classical,fullmul-quantum")
    p.add_argument("--backends", type=_list_of(Backend),
                   default="schoolbook,karatsuba",
                   help="gate-count models, comma-separated; timings "
                        "always measure the one evaluation kernel")
    p.add_argument("--reps", type=int, default=0,
                   help="timing repetitions (>= 31); 0 = counts only")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: malformed ciphertext: {exc}", file=sys.stderr)
        return 4
    except ShortKeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, PreconditionError, BudgetError,
            ConfigurationError, DominationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, EntropyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except EntrosealError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
