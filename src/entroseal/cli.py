"""Command-line surface: parameter derivation, file encryption,
verification and benchmarks. This module parses arguments, prints and
exits; the verification suites are :mod:`entroseal.verify`.

Exit codes: 0 success, 1 verification found a failing check,
2 bad parameters or an unsupported configuration, 3 key file too short,
4 malformed ciphertext, 5 file I/O problems or a failed OS randomness
source, 6 internal error (any other library error).

``encrypt`` and ``decrypt`` load only ``argparse`` and the core modules
(``cipher``, ``keyexpand``, ``gf2``, ``rng``, ``errors``); no
``dataclasses``, ``json`` or numpy. The other subcommands import what
they need when they run: ``json`` for JSON output, the benchmark module
for ``bench`` (and for ``--methods``), and :mod:`entroseal.verify` for
``verify``, which loads its exact labs (``verify quantum`` also numpy).
Only ``verify classical`` reads the enumeration budget (``--budget`` or
``ENTROSEAL_BUDGET``).
"""

from __future__ import annotations

import argparse
import os
import stat
import sys

from .cipher import (SchemeParams, decrypt, deserialize, encrypt,
                     indistinguishability_key_length, serialize)
from .errors import (BudgetError, ConfigurationError, DominationError,
                     EntropyError, EntrosealError, FormatError, ParameterError,
                     PreconditionError)
from .gf2 import Backend, BitPoly
from .keyexpand import Mode
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


def _emit(args: argparse.Namespace, obj, text: str) -> None:
    """Print obj as indented JSON under ``--format json``, else text."""
    if args.format == "json":
        import json
        text = json.dumps(obj, indent=2) + "\n"
    print(text, end="")


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
    _emit(args, out, "".join(f"{k} = {v}\n" for k, v in out.items()))
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
        timing = {method: benchmod.time_expansion(
                      method, params, reps=args.reps,
                      rng=RandomSource(args.seed))
                  for method in methods if args.reps}
        records += [{**benchmod.count_record(method, params, backend),
                     **timing.get(method, {})}
                    for backend in args.backends for method in methods]
    text, rows = benchmod.emit_table(records)
    _emit(args, rows, text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
    if args.suite == "gf2":
        checks = verify.gf2(args.seed)
    elif args.suite == "classical":
        # the classical suite is exact: it takes a budget, not a seed
        budget = _default_budget() if args.budget is None else args.budget
        checks = verify.classical(budget)
    else:
        checks = verify.quantum(args.seed)
    _emit(args, [c.to_dict() for c in checks],
          "".join(f"{c.line()}\n" for c in checks))
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
                   help="comma-separated gate-count models; timing is "
                        "per size and method, not per backend")
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
