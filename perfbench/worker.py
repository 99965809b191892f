"""One benchmark process: set-up, then closed-loop round trips.

run.py starts this file as a child with a wall-clock limit. It prints one
JSON object per line on stdout: {"ready": t} once set-up is done (t on
the monotonic clock run.py also reads), one {"rt": ...} per round trip,
one {"ref": ns} per timing of the yardstick (reference.py), and a final {"done": ...} with the digests, gate counts, peak RSS and,
for a traced phase, the span summary.

    PYTHONPATH=src python3 perfbench/worker.py --workload warm-small \
        --seed 0 --seconds 5 --tmp .perfbench_out/tmp
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import spans
from workloads import EPSILON, EPSILON_ARG, GOLDEN_SEED, WORKLOADS, Inputs

ROOT = Path(__file__).resolve().parent.parent
SHIM = Path(__file__).resolve().parent / "cli_shim.py"
REF_EVERY_S = 0.1  # time the yardstick after a round trip once this has passed


def child_env() -> dict[str, str]:
    """Environment for entroseal child processes: the checkout's src only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class Stream:
    """Seeded inputs plus the parameters and keys derived for each size."""

    def __init__(self, tag: str, seed, coins_cls):
        self.inputs = Inputs(tag, seed)
        self.coins = coins_cls(self.inputs.coin_seed())
        self.prepared: dict = {}


class InProcess:
    """Round trips through the library, in this process."""

    def __init__(self):
        from entroseal import bench, cipher, gf2
        from entroseal.rng import RandomSource
        self.bench, self.cipher, self.gf2 = bench, cipher, gf2
        self.RandomSource = RandomSource

    def stream(self, tag: str, seed) -> Stream:
        return Stream(tag, seed, self.RandomSource)

    def params(self, size):
        nbytes, t = size
        return self.cipher.SchemeParams.derive(8 * nbytes, t, EPSILON)

    def prepare(self, size, stream: Stream):
        if size not in stream.prepared:
            params = self.params(size)
            key = self.cipher.gen(params, self.RandomSource(
                stream.inputs.coin_seed()))
            stream.prepared[size] = (params, key)
        return stream.prepared[size]

    def round_trip(self, size, stream: Stream, traced: bool, op):
        cipher = self.cipher
        params, key = self.prepare(size, stream)
        msg = stream.inputs.message(size[0])
        x = self.gf2.BitPoly(int.from_bytes(msg, "little"), 8 * size[0])
        t0 = time.perf_counter_ns()
        blob = cipher.serialize(cipher.encrypt(key, x, params, stream.coins))
        back = cipher.decrypt(key, cipher.deserialize(blob)).to_bytes()
        ok = back == msg
        return time.perf_counter_ns() - t0, blob, ok, []


class Cli(InProcess):
    """Round trips as fresh `python -m entroseal` encrypt and decrypt
    processes; a traced one runs through cli_shim.py instead."""

    def __init__(self, tmp: Path):
        super().__init__()
        self.tmp = tmp
        self.span_files: list[Path] = []
        self.max_rss_kb = 0  # of the encrypt/decrypt children only

    def prepare(self, size, stream: Stream):
        if size not in stream.prepared:
            ell = self.params(size).ell
            key_path = self.tmp / f"key-{len(stream.prepared)}-{id(stream)}"
            key_path.write_bytes(stream.inputs.message((ell + 7) // 8))
            stream.prepared[size] = key_path
        return stream.prepared[size]

    def _child(self, traced: bool, op, *args: str) -> int:
        if traced:
            out = self.tmp / f"spans-{len(self.span_files)}.jsonl"
            self.span_files.append(out)
            cmd = [sys.executable, str(SHIM), str(out), str(op), *args]
        else:
            cmd = [sys.executable, "-m", "entroseal", *args]
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        with proc.stderr:
            err = proc.stderr.read()
        # wait4 gives this child's own peak RSS, apart from the yardstick's.
        _, status, usage = os.wait4(proc.pid, 0)
        ns = time.perf_counter_ns() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"{args[0]} exited {proc.returncode}: "
                               f"{err.strip()[-300:]}")
        return ns

    def round_trip(self, size, stream: Stream, traced: bool, op):
        nbytes, t = size
        key = str(self.prepare(size, stream))
        msg = stream.inputs.message(nbytes)
        plain, sealed, back = (self.tmp / n for n in ("msg", "msg.ese", "back"))
        plain.write_bytes(msg)
        coin_seed = str(stream.inputs.coin_seed())
        t0 = time.perf_counter_ns()
        enc = self._child(traced, op, "encrypt", str(plain), "--key", key,
                          "--t", str(t), "--epsilon", EPSILON_ARG,
                          "--out", str(sealed), "--seed", coin_seed)
        dec = self._child(traced, op, "decrypt", str(sealed), "--key", key,
                          "--out", str(back))
        ok = back.read_bytes() == msg
        ns = time.perf_counter_ns() - t0
        return ns, sealed.read_bytes(), ok, [enc, dec]

    def layer_summary(self, out_path):
        loaded = [spans.load(p) for p in self.span_files]
        if out_path:
            with open(out_path, "w") as fh:
                for span in (s for file_spans in loaded for s in file_spans):
                    fh.write(json.dumps(span) + "\n")
        return spans.merge(spans.summarize(s) for s in loaded)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="length of the untraced phase")
    p.add_argument("--ops", type=int, default=None,
                   help="cap on untraced round trips")
    p.add_argument("--traced-ops", type=int, default=0,
                   help="traced round trips after the untraced phase, each "
                        "followed by an untraced one (a cold pass: all "
                        "traced); >0 also traces set-up")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tmp", type=Path, required=True,
                   help="scratch directory inside the checkout")
    p.add_argument("--spans-out", default=None,
                   help="write the traced spans here, one JSON per line")
    return p.parse_args(argv)


def main(argv=None) -> int:
    a = _parse(argv)
    w = WORKLOADS[a.workload]
    a.tmp.mkdir(parents=True, exist_ok=True)
    runner = Cli(a.tmp) if w.cli else InProcess()
    traced_setup = a.traced_ops > 0
    tracer = None if w.cli else spans.Tracer()

    # Set-up: SchemeParams.derive and one untimed warm-up round trip on
    # seed-independent inputs, whose ciphertext goes into golden_sha256.
    if traced_setup and tracer:
        tracer.op = "setup"
        tracer.install()
    golden = runner.stream("golden", GOLDEN_SEED)
    _, golden_blob, golden_ok, _ = runner.round_trip(
        w.warmup, golden, traced_setup, "setup")
    run = runner.stream(w.name, a.seed)
    if not w.cold:
        runner.prepare(w.sizes[0], run)
    if tracer:
        tracer.uninstall()
    emit({"ready": time.perf_counter()})
    if a.setup_only:
        return 0

    plan = w.plan(a.seed)
    digest = hashlib.sha256()
    count = 0

    def run_op(traced: bool) -> bool:
        nonlocal count
        size = next(plan, None)
        if size is None:
            return False
        trace_here = traced and tracer is not None
        if trace_here:
            tracer.op = count
            tracer.install()
        ns, blob, child_ns, error = None, b"", [], None
        try:
            ns, blob, ok, child_ns = runner.round_trip(size, run, traced,
                                                       count)
            if not ok:
                error = "plaintext mismatch"
        except Exception as exc:  # one failed round trip; the run goes on
            traceback.print_exc()
            error = repr(exc)
        finally:
            if trace_here:
                tracer.uninstall()
        if count < w.digest_ops:
            digest.update(blob)
        count += 1
        emit({"rt": [ns, size[0], error is None, int(traced)],
              "child_ns": child_ns, "error": error})
        return True

    def time_reference() -> float:
        emit({"ref": reference.time_ns(w.yardstick)})
        return time.perf_counter()

    deadline = time.perf_counter() + a.seconds
    untraced = 0
    last_ref = time_reference() if a.seconds > 0 else 0.0
    while (time.perf_counter() < deadline
           and (a.ops is None or untraced < a.ops) and run_op(False)):
        untraced += 1
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            last_ref = time_reference()
    # Traced and untraced round trips alternate, so that both see the same
    # machine; trace.overhead_pct compares them. A cold pass cannot repeat
    # a lambda, so its traced pass is compared with an untraced one.
    phases = [True] * a.traced_ops if w.cold else [True, False] * a.traced_ops
    for traced in phases:
        if not run_op(traced):
            break

    lams = sorted({runner.params(s).expansion.lam
                   for s in (*w.sizes, w.warmup)})
    moduli = repr([runner.gf2.find_irreducible(lam).reduction_exponents
                   for lam in lams]).encode()
    bench = runner.bench
    gates = [bench.count_expansion(bench.Method.AFFINE,
                                   runner.params(s).expansion,
                                   runner.gf2.Backend.KARATSUBA)
             for s in w.sizes]
    layers = None
    if traced_setup:
        if w.cli:
            layers = runner.layer_summary(a.spans_out)
        else:
            if a.spans_out:
                tracer.dump(a.spans_out)
            layers = spans.summarize(tracer.spans)
    emit({"done": {
        "golden_ok": golden_ok,
        "golden_sha256": hashlib.sha256(golden_blob + moduli).hexdigest(),
        "seed_sha256": digest.hexdigest(),
        "and_gates": sum(g.ands for g in gates),
        "xor_gates": sum(g.xors for g in gates),
        "rss_kb": (runner.max_rss_kb if w.cli
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "layers": layers,
    }})
    return 0


if __name__ == "__main__":
    sys.exit(main())
