"""Cost accounting for key expansion: exact gate counts and wall time.

The comparison of interest is the affine expansion (one multiplication
in GF(2^lambda) with lambda = max(ell, out_len - ell)) against the
full-multiplication baselines (one multiplication in GF(2^n) classical,
GF(2^2n) quantum). Halving the field size is what makes the affine map
roughly a factor two cheaper in AND gates at matched security sizing.
The backend picks the gate-count model only; timings always measure the
library's single evaluation kernel.
"""

from __future__ import annotations

import dataclasses
import enum
import statistics
import time

from .errors import PreconditionError
from .gf2 import Backend, OpCount, clmul_cost, find_irreducible, reduce_cost
from .keyexpand import ExpansionParams, Mode, expand_affine, expand_fullmul
from .rng import RandomSource

__all__ = [
    "Method",
    "BenchRecord",
    "baseline",
    "count_expansion",
    "count_record",
    "time_expansion",
    "emit_table",
]

_WARMUP_REPS = 3


class Method(enum.Enum):
    """Key-expansion strategies under comparison."""

    AFFINE = "affine"
    FULLMUL_CLASSICAL = "fullmul-classical"
    FULLMUL_QUANTUM = "fullmul-quantum"


# The mode each full-multiplication baseline applies to.
_BASELINE_MODE = {
    Method.FULLMUL_CLASSICAL: Mode.CLASSICAL,
    Method.FULLMUL_QUANTUM: Mode.QUANTUM,
}


def baseline(mode: Mode) -> Method:
    """The full-multiplication method that applies to mode."""
    return next(m for m, applies in _BASELINE_MODE.items() if applies is mode)


def count_expansion(method: Method, params: ExpansionParams,
                    backend: Backend) -> OpCount:
    """Exact AND/XOR gates for one expansion under the given backend.

    Counts are data-independent: every shipped kernel is oblivious, so a
    single analytic evaluation covers all inputs. The affine method pays
    one lambda-wide field multiplication plus tail_len XORs for adding v;
    the baselines pay one full-width field multiplication.
    """
    if method is Method.AFFINE:
        if params.tail_len == 0:
            return OpCount(0, 0)
        spec = find_irreducible(params.lam)
        cost = clmul_cost(params.lam, params.lam, backend)
        cost += reduce_cost(2 * params.lam, spec)
        return cost + OpCount(0, params.tail_len)
    mode = _BASELINE_MODE.get(method)
    if mode is None:
        raise PreconditionError(f"unknown method {method!r}")
    if params.mode is not mode:
        raise PreconditionError(f"{method.value} applies to {mode.value} mode")
    width = params.out_len
    spec = find_irreducible(width)
    return clmul_cost(width, width, backend) + reduce_cost(2 * width, spec)


@dataclasses.dataclass(frozen=True)
class BenchRecord:
    """One (method, backend, sizes) measurement.

    cost is exact and identical across repetitions; wall_ns fields are
    None for counting-only records.
    """

    method: Method
    backend: Backend
    mode: Mode
    n: int
    ell: int
    lam: int
    cost: OpCount
    wall_ns_median: float | None = None
    wall_ns_iqr: float | None = None
    reps: int = 0
    env: str = ""
    warn_timer: bool = False

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "backend": self.backend.value,
            "mode": self.mode.value,
            "n": self.n,
            "ell": self.ell,
            "lam": self.lam,
            "ands": self.cost.ands,
            "xors": self.cost.xors,
            "wall_ns_median": self.wall_ns_median,
            "wall_ns_iqr": self.wall_ns_iqr,
            "reps": self.reps,
            "env": self.env,
            "warn_timer": self.warn_timer,
        }


def count_record(method: Method, params: ExpansionParams,
                 backend: Backend) -> BenchRecord:
    """Counting-only record; lam is the field width the method multiplies in."""
    width = params.lam if method is Method.AFFINE else params.out_len
    return BenchRecord(
        method=method, backend=backend, mode=params.mode, n=params.n,
        ell=params.ell, lam=width,
        cost=count_expansion(method, params, backend))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or platform.machine() or "unknown-cpu"


def _make_runner(method: Method, params: ExpansionParams, rng: RandomSource):
    key = rng.bits(params.ell)
    if method is Method.AFFINE:
        u = rng.bits(params.lam)
        v = rng.bits(params.tail_len)
        return lambda: expand_affine(key, u, v, params)
    r = rng.bits(params.out_len)
    return lambda: expand_fullmul(key, r, params)


def time_expansion(method: Method, params: ExpansionParams, backend: Backend,
                   reps: int = 31, rng: RandomSource | None = None) -> BenchRecord:
    """Median wall time over reps runs, warmup excluded, fresh inputs per rep.

    Input generation happens outside the timed region. The record is
    count_record's with the timings added, so the backend picks its cost
    model only. It carries the CPU model string; warn_timer is set when
    the median is within two orders of magnitude of the clock resolution
    and should be mistrusted.
    """
    if reps < 31:
        raise PreconditionError(f"need reps >= 31 for stable medians, got {reps}")
    counted = count_record(method, params, backend)
    if rng is None:
        rng = RandomSource(0)
    runners = [_make_runner(method, params, rng)
               for _ in range(_WARMUP_REPS + reps)]
    for run in runners[:_WARMUP_REPS]:
        run()
    times = []
    for run in runners[_WARMUP_REPS:]:
        t0 = time.perf_counter_ns()
        run()
        times.append(time.perf_counter_ns() - t0)
    median = float(statistics.median(times))
    quartiles = statistics.quantiles(times, n=4)
    iqr = float(quartiles[2] - quartiles[0])
    resolution_ns = time.get_clock_info("perf_counter").resolution * 1e9
    return dataclasses.replace(
        counted, wall_ns_median=median, wall_ns_iqr=iqr, reps=reps,
        env=_cpu_model(), warn_timer=median < 100.0 * resolution_ns)


_COLUMNS = ("method", "backend", "mode", "n", "ell", "lam",
            "ands", "xors", "median_us", "iqr_us", "and_ratio", "time_ratio")


def _sig3(x: float) -> str:
    return f"{x:.3g}"


def emit_table(records: list[BenchRecord]) -> tuple[str, list[dict]]:
    """Deterministic text table plus a machine-readable twin.

    Ratio columns compare each full-multiplication record against the
    affine record with the same (mode, n, backend): ratios above 1 mean
    the affine expansion is cheaper. Affine rows show 1 by definition;
    rows with no matching affine record show '-'.
    """
    affine_by_key: dict[tuple, BenchRecord] = {}
    for rec in records:
        if rec.method is Method.AFFINE:
            affine_by_key[(rec.mode, rec.n, rec.backend)] = rec

    rows: list[dict] = []
    for rec in records:
        base = affine_by_key.get((rec.mode, rec.n, rec.backend))
        and_ratio = None
        time_ratio = None
        if base is not None and base.cost.ands > 0:
            and_ratio = rec.cost.ands / base.cost.ands
        if (base is not None and rec.wall_ns_median is not None
                and base.wall_ns_median):
            time_ratio = rec.wall_ns_median / base.wall_ns_median
        row = rec.to_dict()
        row["and_ratio"] = and_ratio
        row["time_ratio"] = time_ratio
        rows.append(row)

    widths = {c: len(c) for c in _COLUMNS}
    cells_per_row = []
    for row in rows:
        cells = {
            "method": row["method"],
            "backend": row["backend"],
            "mode": row["mode"],
            "n": str(row["n"]),
            "ell": str(row["ell"]),
            "lam": str(row["lam"]),
            "ands": str(row["ands"]),
            "xors": str(row["xors"]),
            "median_us": ("-" if row["wall_ns_median"] is None
                          else _sig3(row["wall_ns_median"] / 1000.0)),
            "iqr_us": ("-" if row["wall_ns_iqr"] is None
                       else _sig3(row["wall_ns_iqr"] / 1000.0)),
            "and_ratio": ("-" if row["and_ratio"] is None
                          else _sig3(row["and_ratio"])),
            "time_ratio": ("-" if row["time_ratio"] is None
                           else _sig3(row["time_ratio"])),
        }
        cells_per_row.append(cells)
        for c in _COLUMNS:
            widths[c] = max(widths[c], len(cells[c]))

    header = "  ".join(c.ljust(widths[c]) for c in _COLUMNS).rstrip()
    rule = "  ".join("-" * widths[c] for c in _COLUMNS).rstrip()
    lines = [header, rule]
    for cells in cells_per_row:
        lines.append("  ".join(cells[c].ljust(widths[c])
                               for c in _COLUMNS).rstrip())
    return "\n".join(lines) + "\n", rows
