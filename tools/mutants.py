"""Run tier-1 against each committed mutant of the library.

Each entry of MUTANTS names a file, a text that occurs in it exactly once,
the text that replaces it, and why the change should be caught. For each
entry the tracked files are copied to a temporary directory, the mutant
is applied there, and the whole of tier-1 runs on the copy under a time
limit. Two tests are left out of that run: criterion 08, which fails on
purpose (see the README), and ``tests/test_mutants.py``, which checks
that each old text is still in place and so fails on every mutant. The
repository itself is never written.

Each entry prints one verdict: KILLED with every failing test, one a
line, in the order pytest reports them (for an error, such as a module
that no longer collects, with its cause), KILLED on a timeout (a mutant
that makes the suite hang is caught too), SURVIVED when every test
passes, or EQUIVALENT, without a run, for an entry marked so, whose
``why`` says why no test can tell it apart.

Usage: python tools/mutants.py [TEXT ...]
With no TEXT every entry runs; otherwise only the entries whose file or
old text contains one of the TEXTs, for example
``python tools/mutants.py modulus.py`` for the modulus search's own.
Each entry keeps its number in the list. Exits 1 if any mutant survived,
2 if no entry matches.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIME_LIMIT_S = 600
CRITERION_08 = "tests/test_acceptance.py::test_criterion_08_cost_factor_two"
LIST_TEST = "tests/test_mutants.py"


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str
    equivalent: bool = False


MUTANTS = [
    Mutant("src/entroseal/cipher.py",
           "_SNAP = 1e-9", "_SNAP = 1e-3",
           "a looser snap rounds some key lengths down by one bit"),
    Mutant("src/entroseal/cipher.py",
           "if mode is Mode.CLASSICAL and ell > n:",
           "if mode is Mode.CLASSICAL and ell > n + 1:",
           "the classical floor would accept a key one bit longer than n"),
    Mutant("src/entroseal/statlab.py",
           "lhs <= bound, lhs, bound)", "lhs <= 2 * bound, lhs, bound)",
           "the collision check would pass a pad twice over its bound"),
    Mutant("src/entroseal/statlab.py",
           "delta * delta <= eps_star_sq, delta * delta, eps_star_sq)",
           "delta * delta <= 4 * eps_star_sq, delta * delta, eps_star_sq)",
           "delta^2 <= eps*^2 / 2 for every distribution (Cauchy-Schwarz, "
           "check_indistinguishability's docstring), so no input can fail "
           "either bound", equivalent=True),
    Mutant("src/entroseal/keyexpand.py",
           "(low ^ v.value) << params.ell", "low << params.ell",
           "the affine expansion would drop its public offset v"),
    Mutant("src/entroseal/bench.py",
           "xors += (spec.weight - 1) * h", "xors += spec.weight * h",
           "the reduction would be counted one XOR per bit too high"),
    Mutant("src/entroseal/modulus.py",
           "return 0 if b == x and _polygcd_int(f, prod) == 1 else lam",
           "return 0 if b == x else lam",
           "without Rabin's final gcd a product of distinct-degree factors "
           "dividing lam passes as irreducible"),
    Mutant("src/entroseal/modulus.py",
           "            if _polygcd_int(f, prod) != 1:\n                return k",
           "            if k < 48 and _polygcd_int(f, prod) != 1:\n"
           "                return k",
           "without the step-48 gcd a factor of degree 25..48 is missed "
           "or found only at the end of the walk"),
    Mutant("src/entroseal/modulus.py",
           "(r | _HIGH) - _ONES & _HIGH != _HIGH",
           "(r | _HIGH) - 2 * _ONES & _HIGH != _HIGH",
           "subtracting 2 per slot would read a remainder of 1 as 0, so the "
           "sieve would drop candidates, irreducible ones too"),
    Mutant("src/entroseal/modulus.py",
           "for e in exps:", "for e in exps[:-1]:",
           "without its x^0 term the sieve would test x^lam + x^m rather "
           "than x^lam + x^m + 1"),
    Mutant("src/entroseal/modulus.py",
           "return r ^ ((r >> _SIEVE_DEGREE) & _ONES)",
           "return r ^ ((r >> (_SIEVE_DEGREE - 1)) & _ONES)",
           "reading the overflow one bit low, the multiply-by-x step would "
           "subtract g from the wrong slots"),
    Mutant("src/entroseal/modulus.py",
           "for _ in range((1 << _SIEVE_DEGREE) - 2):",
           "for _ in range((1 << _SIEVE_DEGREE) - 3):",
           "the table would end at x^1021, one entry short of a period of "
           "the degree-10 g, so reading x^1022 or merging it would fail"),
    Mutant("src/entroseal/modulus.py",
           "(slot * e, -lc * t % 8) for e, t in tail]",
           "(slot * e, lc * t % 8) for e, t in tail]",
           "with the sign of the fold's coefficients flipped, the parity "
           "test would reduce mod the wrong polynomial"),
    Mutant("src/entroseal/modulus.py",
           "e % period", "e % (period + 1)",
           "a power past the table would read each degree's slots from the "
           "wrong entry, as 2^d - 1 is the period that x^e mod g repeats "
           "with"),
    Mutant("src/entroseal/modulus.py",
           "for d in range(1, _SIEVE_DEGREE + 1))",
           "for d in range(1, _SIEVE_DEGREE))",
           "without degree 10 a merged power would leave the slots of the "
           "99 irreducibles of degree 10 at 0"),
    Mutant("src/entroseal/gf2.py",
           'b"0123456789abcdef"', 'b"0123456789abcdeF"',
           "the hex digit f would be left as its ASCII byte, not spread, so "
           "every square with a nibble 15 would be wrong"),
    Mutant("src/entroseal/gf2.py",
           '_SPREAD_HEX),\n            "big")',
           '_SPREAD_HEX),\n            "little")',
           "reading the spread bytes little-endian would reverse the "
           "square's bytes"),
    Mutant("src/entroseal/gf2.py",
           "^ (hi << e2) ^ (hi << e1)", "^ (hi << e1)",
           "the unrolled pentanomial fold would drop the term x^b, so it "
           "would reduce mod the trinomial x^lam + x^a + x^c + 1"),
    Mutant("src/entroseal/gf2.py",
           "for e in rest:", "for e in rest[:-1]:",
           "the loop fold would drop the modulus's constant term"),
    Mutant("src/entroseal/gf2.py",
           " ^ t15[w15]", "",
           "the 64-bit-step comb would drop the top nibble of every word of "
           "the narrower operand"),
    Mutant("src/entroseal/gf2.py",
           "out[0::2] = raw.translate(_LOW_NIBBLE)\n"
           "    out[1::2] = raw.translate(_HIGH_NIBBLE)",
           "out[0::2] = raw.translate(_HIGH_NIBBLE)\n"
           "    out[1::2] = raw.translate(_LOW_NIBBLE)",
           "with the nibbles of each byte swapped, the 4-bit-window comb and "
           "the 64-bit-step comb would multiply by the wrong windows"),
    Mutant("src/entroseal/qlab.py",
           "bound = min(bounds)", "bound = max(bounds)",
           "the trace-norm check would pass when any one ceiling holds, "
           "though each is a proved bound that must hold on its own"),
    Mutant("src/entroseal/gf2.py",
           "if value >> nbits:\n            raise LengthError(\"padding",
           "if False:\n            raise LengthError(\"padding",
           "BitPoly.from_bytes, and so deserialize, would accept a field "
           "whose pad bits are set, as a BitPoly wider than its width"),
    Mutant("src/entroseal/keyexpand.py",
           "low &= (1 << tail_len) - 1", "low &= (2 << tail_len) - 1",
           "with the mask one bit too wide, a key longer than the tail "
           "would leak one product bit past the pad's width"),
    Mutant("src/entroseal/gf2.py",
           "if a.value >> lam or b.value >> lam:",
           "if a.value >> lam + 1 or b.value >> lam + 1:",
           "gf_mul would take an operand of degree lam as a field element, "
           "one bit wider than the width it is built at"),
]


def tracked_files() -> list[str]:
    out = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return [name for name in out.split("\0") if name]


def run_mutant(mutant: Mutant, files: list[str]) -> str:
    """The verdict line for one mutant, after running tier-1 on a copy."""
    if mutant.equivalent:
        return f"EQUIVALENT {mutant.why}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = pathlib.Path(tmp)
        for name in files:
            (copy / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, copy / name)
        target = copy / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.file}: old text must occur once: "
                             f"{mutant.old!r}")
        target.write_text(text.replace(mutant.old, mutant.new))
        # wide enough that pytest's summary keeps each cause whole
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), COLUMNS="400")
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p",
             "no:cacheprovider", "--continue-on-collection-errors",
             "--deselect", CRITERION_08, "--ignore", LIST_TEST],
            cwd=copy, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        start = time.monotonic()
        try:
            out, _ = proc.communicate(timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return f"KILLED     timeout after {TIME_LIMIT_S} s"
        elapsed = time.monotonic() - start
    if proc.returncode == 0:
        return f"SURVIVED   ({elapsed:.0f} s)"
    failures = killed_by(out) or [f"pytest exit status {proc.returncode}"]
    return ("KILLED     " + "\n           ".join(failures)
            + f" ({elapsed:.0f} s)")


def killed_by(out: str) -> list[str]:
    """Every entry of pytest's short test summary in ``out``, in order: a
    FAILED line's test id, or an ERROR line's id with its cause, since a
    collection error names only the file it broke."""
    summary = out.partition("short test summary info")[2]
    failures = []
    for line in summary.splitlines():
        if line.startswith("FAILED "):
            failures.append(line.split()[1])
        elif line.startswith("ERROR "):
            failures.append(line.removeprefix("ERROR "))
    return failures


def select(texts: list[str]) -> list[tuple[int, Mutant]]:
    """(number, entry) for each entry whose file or old text contains one
    of ``texts``, every entry when there is none; numbered from 1."""
    return [(i, mutant) for i, mutant in enumerate(MUTANTS, 1)
            if not texts
            or any(t in mutant.file or t in mutant.old for t in texts)]


def main(texts: list[str]) -> int:
    chosen = select(texts)
    if not chosen:
        print(f"no mutant matches {texts!r}")
        return 2
    files = tracked_files()
    survived = 0
    for i, mutant in chosen:
        print(f"{i:2d} {mutant.file}: {mutant.old.strip()!r} -> "
              f"{mutant.new.strip()!r}", flush=True)
        verdict = run_mutant(mutant, files)
        survived += verdict.startswith("SURVIVED")
        for line in verdict.splitlines():
            print(f"   {line}", flush=True)
    print(f"{survived} of {len(chosen)} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
