"""The entroseal benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload warm-small --seed 0 --seconds 25 --trace 0

Runs the workload's round trips in child processes (worker.py), each
under a wall-clock limit, checks every decrypted plaintext and the pinned
digests and gate counts in pins.json, and prints as its last stdout line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Details, with the environment, go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from worker import child_env
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 4      # set-up-only processes per run, besides the workers
IMPORT_PROBES = 5     # fresh interpreters timed for cli.import_ms
CLI_PROBE_OPS = 3     # README-example CLI round trips for cli.process_ms
RUN_BUDGET_S = 170    # a run ends within 180 s whatever its workers do
SETUP_LIMIT_S = 30    # wall-clock allowance for a worker's set-up
COLD_PASS_LIMIT_S = 60  # a pass of the cold ladder takes about 25 s
TRACE_LIMIT_S = 60    # traced round trips of a warm or cli workload

# Printed beside the metrics of BENCHMARK.json. The wall-clock figures are
# not gated there because the machine's speed drifts more than any bound
# could allow; their ratios to the yardstick (reference.py) are.
UNGATED_UNITS = {"roundtrip_p50_ms": "ms", "roundtrip_tail_ms": "ms",
                   "throughput_kBps": "kB/s", "reference_ms": "ms"}


@dataclass
class Worker:
    """What one worker process reported before it exited or was killed."""

    setup_s: float | None = None
    rts: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    done: dict | None = None
    timed_out: bool = False


class Launcher:
    """Starts workers in their own process group, each under a wall-clock
    limit, and keeps every run inside RUN_BUDGET_S."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.base = ["--workload", workload, "--seed", str(seed),
                     "--tmp", str(tmp)]
        self.start = time.perf_counter()

    def left(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def __call__(self, args: list[str], limit: float,
                 base: list[str] | None = None) -> Worker:
        cmd = [sys.executable, str(HERE / "worker.py"),
               *(self.base if base is None else base), *args]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        worker = Worker()
        try:
            out, _ = proc.communicate(timeout=max(1.0, min(limit, self.left())))
        except subprocess.TimeoutExpired:
            worker.timed_out = True
            _kill_group(proc)
            out, _ = proc.communicate()
        finally:
            _kill_group(proc)  # also ends CLI children of a killed worker
            proc.wait()
        # A round trip is set against the mean of the yardstick timings
        # just before and just after it.
        pending = []
        for line in out.splitlines():
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if "ready" in obj:
                worker.setup_s = obj["ready"] - t0
            elif "rt" in obj:
                worker.rts.append(obj)
                pending.append(obj)
            elif "ref" in obj:
                ref = obj["ref"] / 1e6
                before = worker.refs[-1] if worker.refs else ref
                for rt in pending:
                    rt["ref_ms"] = (before + ref) / 2
                pending = []
                worker.refs.append(ref)
            elif "done" in obj:
                worker.done = obj["done"]
        for rt in pending:
            rt["ref_ms"] = worker.refs[-1] if worker.refs else None
        return worker


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _import_ms() -> list[float]:
    """Wall time of fresh interpreters running `import entroseal.cli`."""
    out = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import entroseal.cli"],
                       cwd=ROOT, env=child_env(), check=True, timeout=30)
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit or "unknown",
        "git_dirty": None if status is None else bool(status),
    }


def _percentile(sorted_ms: list[float], pct: int) -> float:
    if len(sorted_ms) == 1:
        return sorted_ms[0]
    return statistics.quantiles(sorted_ms, n=100, method="inclusive")[pct - 1]


def _overhead_pct(traced: list, untraced: list) -> float | None:
    """Median ratio of each traced round trip to the untraced one of the
    same size that ran next to it (in the other pass, for a cold one)."""
    pending: dict[int, list[float]] = {}
    for size, ms, _ in untraced:
        pending.setdefault(size, []).append(ms)
    ratios = [ms / pending[size].pop(0) for size, ms, _ in traced
              if pending.get(size)]
    return (statistics.median(ratios) - 1) * 100 if ratios else None


def measure(a, w, tmp: Path) -> dict:
    launch = Launcher(w.name, a.seed, tmp)
    spans_out = ["--spans-out", str(OUT / f"spans-{w.name}-seed{a.seed}.jsonl")]
    setups = [launch(["--setup-only"], SETUP_LIMIT_S)
              for _ in range(SETUP_PROBES)]
    workers = []
    if w.cold:
        # Whole passes only, each in a fresh process, so that every run
        # covers the same lambdas; a pass starts if it is expected to end
        # within --seconds, and the first always runs.
        if a.trace:
            workers.append(launch(["--traced-ops", str(len(w.sizes)),
                                   *spans_out], COLD_PASS_LIMIT_S))
            workers.append(launch(["--seconds", "1e9"], COLD_PASS_LIMIT_S))
        else:
            t_start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                workers.append(launch(["--seconds", "1e9"], COLD_PASS_LIMIT_S))
                last = time.perf_counter() - t0
                elapsed = time.perf_counter() - t_start
                if (elapsed + last > a.seconds or workers[-1].done is None
                        or launch.left() < last + 5):
                    break
    elif a.trace:
        workers.append(launch(["--traced-ops", str(w.traced_ops), *spans_out],
                              TRACE_LIMIT_S))
    else:
        workers.append(launch(["--seconds", str(a.seconds)],
                              a.seconds + SETUP_LIMIT_S))

    res = {"problems": [], "errors": []}
    attempted = failed = 0
    # (bytes, ms, yardstick ms around it) per good round trip
    ops = {False: [], True: []}
    for wk in workers:
        for rt in wk.rts:
            rt_ns, size, ok, is_traced = rt["rt"]
            attempted += 1
            if not ok:
                failed += 1
                res["errors"].append(rt["error"])
                continue
            ops[bool(is_traced)].append((size, rt_ns / 1e6, rt.get("ref_ms")))
        if wk.done is None:
            # Killed or crashed: the round trip in flight, and for a cold
            # pass every one it did not reach, count as failed.
            missed = max(len(w.sizes) - len(wk.rts), 1) if w.cold else 1
            attempted += missed
            failed += missed
            res["problems"].append("worker timed out" if wk.timed_out
                                   else "worker exited without a result")
    res["attempted"], res["failed"] = max(attempted, 1), failed
    if failed:
        res["problems"].append(f"{failed} of {attempted} round trips failed")

    pins = json.loads((HERE / "pins.json").read_text())
    pin = pins["workloads"][w.name]
    done = [wk.done for wk in workers if wk.done]
    for d in done:
        if not d["golden_ok"] or d["golden_sha256"] != pin.get("golden_sha256"):
            res["problems"].append("golden ciphertext or moduli changed")
        if (d["and_gates"], d["xor_gates"]) != (pin.get("and_gates"),
                                                 pin.get("xor_gates")):
            res["problems"].append("gate counts changed")
        if a.seed == pins["default_seed"] and (d["seed_sha256"]
                                               != pin.get("seed_sha256")):
            res["problems"].append("seeded ciphertexts changed")
    res["digests"] = [{k: d[k] for k in ("golden_sha256", "seed_sha256",
                                         "and_gates", "xor_gates")}
                      for d in done]
    setup_s = [wk.setup_s for wk in setups + workers if wk.setup_s is not None]
    if len(setup_s) < len(setups):
        res["problems"].append("a set-up probe did not become ready")

    metrics: dict[str, float | None] = {}
    lat = sorted(ms for _, ms, _ in ops[False])
    # Each round trip over the yardstick timed around it, so that the ratio
    # follows the machine's speed through the run.
    rel = [(size, ms / ref) for size, ms, ref in ops[False] if ref]
    if a.trace:
        probe = launch(["--seconds", "1e9", "--ops", str(CLI_PROBE_OPS)],
                       SETUP_LIMIT_S + 10 * CLI_PROBE_OPS,
                       base=["--workload", "cli", "--seed", str(a.seed),
                             "--tmp", str(tmp)])
        child_ms = [c / 1e6 for rt in probe.rts for c in rt["child_ns"]]
        if probe.done is None or len(child_ms) < 2 * CLI_PROBE_OPS:
            res["problems"].append("CLI probe failed")
        res["spans"] = spans.merge(d["layers"] for d in done if d["layers"])
        metrics = spans.layer_metrics(res["spans"])
        metrics.update({
            "cli.import_ms": statistics.median(_import_ms()),
            "cli.process_ms": statistics.median(child_ms) if child_ms else None,
            "bench.and_gates": done[0]["and_gates"] if done else None,
            "bench.xor_gates": done[0]["xor_gates"] if done else None,
            "trace.overhead_pct": _overhead_pct(ops[True], ops[False]),
        })
    elif lat and rel:
        tail = _percentile(lat, w.tail_pct)
        rel_sorted = sorted(r for _, r in rel)
        metrics = {
            "setup_s": statistics.median(setup_s) if setup_s else None,
            "roundtrip_p50_ms": statistics.median(lat),
            "roundtrip_tail_ms": tail,
            # B/ms is kB/s (1 kB = 1000 B)
            "throughput_kBps": (sum(size for size, _, _ in ops[False])
                                / sum(ms for _, ms, _ in ops[False])),
            "peak_rss_mb": max(d["rss_kb"] for d in done) / 1024
            if done else None,
            "reference_ms": statistics.median(
                r for wk in workers for r in wk.refs),
            "roundtrip_p50_ref": statistics.median(rel_sorted),
            "roundtrip_tail_ref": _percentile(rel_sorted, w.tail_pct),
            "throughput_B_per_ref": (sum(size for size, _ in rel)
                                     / sum(r for _, r in rel)),
        }
        res["tail"] = {"pct": w.tail_pct, "samples": len(lat),
                       "beyond": sum(x > tail for x in lat)}
    res["setup_samples_s"] = setup_s
    res["metrics"] = metrics
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "entroseal" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {src}/entroseal or {spec_path} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if a.trace else "end_to_end"]}
    # Byte-compile up front so that no run pays for it inside setup_s.
    compileall.compile_dir(str(src), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    w = WORKLOADS[a.workload]
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        res = measure(a, w, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    res["environment"] = environment()
    res["workload"], res["seed"], res["trace"] = w.name, a.seed, a.trace

    missing = sorted(n for n in units if res["metrics"].get(n) is None)
    metrics = {n: {"value": res["metrics"][n], "unit": u}
               for n, u in units.items() if n not in missing}
    shown = {n: {"value": v, "unit": units.get(n) or UNGATED_UNITS[n]}
             for n, v in res["metrics"].items() if v is not None}
    correct = not res["problems"]
    res["missing"] = missing
    (OUT / f"result-{w.name}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps(res, indent=1))

    print("environment: " + json.dumps(res["environment"]))
    for name, m in shown.items():
        print(f"{w.name} {name} = {m['value']:.6g} {m['unit']}")
    if "tail" in res:
        print(f"{w.name} roundtrip_tail_ms is p{res['tail']['pct']} of "
              f"{res['tail']['samples']} samples ({res['tail']['beyond']} "
              "beyond it)")
    print(f"{w.name} error_rate = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']})")
    for problem in res["problems"]:
        print(f"{w.name} problem: {problem}")
    for name in missing:
        print(f"{w.name} {name} = missing")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
