"""Smoke tests of the benchmark itself (about two minutes, mostly the
cold-lambda passes).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "0",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_boundary_that_never_fired_is_missing_not_zero():
    from entroseal import cipher
    from entroseal.rng import RandomSource

    tracer = spans.Tracer()
    # gf2.reduce_mod left out, as if a refactor had moved that boundary.
    tracer.install(b for b in spans.BOUNDARIES if b[0] != "gf2.reduce_mod")
    try:
        params = cipher.SchemeParams.derive(256, 128, 2.0 ** -40)
        rng = RandomSource(1)
        key = cipher.gen(params, rng)
        x = rng.bits(256)
        blob = cipher.serialize(cipher.encrypt(key, x, params, rng))
        assert cipher.decrypt(key, cipher.deserialize(blob)) == x
    finally:
        tracer.uninstall()
    layers = spans.layer_metrics(spans.summarize(tracer.spans))
    assert layers["gf2.reduce_us"] is None
    assert all(v is not None for k, v in layers.items()
               if k != "gf2.reduce_us")
    assert set(spans.layer_metrics({}).values()) == {None}


def test_run_over_its_limit_counts_remaining_round_trips_as_failed(
        tmp_path, monkeypatch):
    monkeypatch.setattr(run, "COLD_PASS_LIMIT_S", 3)
    args = argparse.Namespace(seed=0, seconds=1, trace=0)
    res = run.measure(args, WORKLOADS["cold-lambda"], tmp_path)
    assert "worker timed out" in res["problems"]
    assert res["attempted"] == len(WORKLOADS["cold-lambda"].sizes)
    assert res["failed"] >= res["attempted"] - 3


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "warm-small", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
