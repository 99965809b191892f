"""Cost accounting for key expansion: exact gate counts and wall time.

The comparison of interest is the affine expansion (one multiplication
in GF(2^lambda) with lambda = max(ell, out_len - ell)) against the
full-multiplication baselines (one multiplication in GF(2^n) classical,
GF(2^2n) quantum). Halving the field size is what makes the affine map
roughly a factor two cheaper in AND gates at matched security sizing.

:mod:`entroseal.gf2` computes every product; this module counts them.
It holds the whole count model: clmul_cost and reduce_cost count the
two-input AND and XOR gates of one carry-less multiply and one
reduction, and count_expansion adds them up for one expansion. Their
rules are mirrored bit-serially in :mod:`entroseal.gf2ref` and the two
are tested against each other. A backend picks the gate-count model
only. Timing takes no backend: it measures the library's single
evaluation kernel, once per method and size.

Each result is one plain dict, the row that ``entroseal bench --format
json`` prints: count_record builds a backend's counts-only row,
time_expansion measures the timing keys to merge into it, and emit_table
adds the two ratios and renders the text table.
"""

from __future__ import annotations

import enum
import statistics
import time
from functools import lru_cache

from .errors import ConfigurationError, PreconditionError
from .gf2 import Backend, FieldSpec, OpCount, find_irreducible
from .keyexpand import ExpansionParams, Mode, expand_affine, expand_fullmul
from .rng import RandomSource

__all__ = [
    "Method",
    "baseline",
    "clmul_cost",
    "reduce_cost",
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


def baseline(mode: Mode) -> Method:
    """The full-multiplication method that applies to mode."""
    return Method(f"fullmul-{mode.value}")


def _width(method: Method, params: ExpansionParams) -> int:
    """The field width method multiplies in: lambda for the affine map,
    out_len for a baseline, which must apply to params' mode."""
    if method is Method.AFFINE:
        return params.lam
    if method is not baseline(params.mode):
        raise PreconditionError(
            f"{method.value} does not apply to {params.mode.value} mode")
    return params.out_len


@lru_cache(maxsize=None)
def _kara_cost(nbits: int) -> OpCount:
    """Gates for Karatsuba at width nbits, split into ceil(v/2) + floor(v/2).

    ANDs: A(1) = 1 and A(v) = 2 A(ceil(v/2)) + A(floor(v/2)). XORs:
    X(1) = 0 and X(v) = 2 X(ceil(v/2)) + X(floor(v/2)) + 4v - 4: splitting
    costs two half-width additions (2 ceil(v/2) <= v+1, counted exactly
    below), and recombining xors the middle product into the overlap.
    """
    if nbits <= 1:
        return OpCount(nbits, 0)
    hi = _kara_cost((nbits + 1) // 2)
    lo = _kara_cost(nbits // 2)
    return OpCount(2 * hi.ands + lo.ands,
                   2 * hi.xors + lo.xors + 4 * nbits - 4)


def clmul_cost(na: int, nb: int, backend: Backend = Backend.SCHOOLBOOK) -> OpCount:
    """Gate count for a carry-less multiply of widths na x nb.

    Schoolbook uses na*nb ANDs and na*nb - (na + nb - 1) XORs: each output
    bit is first written, then folded, so one XOR per partial product
    beyond the first landing in each of the na+nb-1 output columns.
    Karatsuba pads to the larger width and follows the recurrence exactly.
    """
    if na < 0 or nb < 0:
        raise PreconditionError("widths must be nonnegative")
    if na == 0 or nb == 0:
        return OpCount(0, 0)
    if backend is Backend.SCHOOLBOOK:
        return OpCount(na * nb, na * nb - (na + nb - 1))
    if backend is Backend.KARATSUBA:
        return _kara_cost(max(na, nb))
    raise ConfigurationError(f"unknown backend {backend!r}")


def reduce_cost(width: int, spec: FieldSpec) -> OpCount:
    """XOR count for reducing a width-bit polynomial modulo the field spec.

    Folding the part above degree lam-1 back down costs (weight - 1) XORs
    per excess bit, applied obliviously (data-independent), possibly over
    several rounds when a fold re-creates high bits.
    """
    lam = spec.lam
    if width > 2 * lam:
        raise PreconditionError(
            f"reduction input of {width} bits exceeds 2*lam = {2 * lam}"
        )
    top = spec.reduction_exponents[0] if spec.reduction_exponents else 0
    xors = 0
    cur = width
    while cur > lam:
        h = cur - lam
        xors += (spec.weight - 1) * h
        cur = lam if h + top <= lam else h + top
    return OpCount(0, xors)


def count_expansion(method: Method, params: ExpansionParams,
                    backend: Backend) -> OpCount:
    """Exact AND/XOR gates for one expansion under the given backend.

    Counts are data-independent: every shipped kernel is oblivious, so a
    single analytic evaluation covers all inputs. Each method pays one
    field multiplication at its width; the affine method also pays
    tail_len XORs for adding v, and nothing at all for a full-length key.
    """
    width = _width(method, params)
    if method is Method.AFFINE and params.tail_len == 0:
        return OpCount(0, 0)
    cost = clmul_cost(width, width, backend)
    cost += reduce_cost(2 * width, find_irreducible(width))
    if method is Method.AFFINE:
        cost += OpCount(0, params.tail_len)
    return cost


def count_record(method: Method, params: ExpansionParams,
                 backend: Backend) -> dict:
    """Counts-only bench row; lam is the width the method multiplies in."""
    cost = count_expansion(method, params, backend)
    return {
        "method": method.value, "backend": backend.value,
        "mode": params.mode.value, "n": params.n, "ell": params.ell,
        "lam": _width(method, params), "ands": cost.ands, "xors": cost.xors,
        "wall_ns_median": None, "wall_ns_iqr": None, "reps": 0, "env": "",
        "warn_timer": False,
    }


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


def time_expansion(method: Method, params: ExpansionParams, reps: int = 31,
                   rng: RandomSource | None = None) -> dict:
    """Median wall time over reps runs, warmup excluded, fresh inputs per rep.

    Input generation happens outside the timed region. Returns a row's
    five timing keys, to merge into count_record's row for any backend:
    the kernel timed is the same whatever cost model counts it. env is
    the CPU model string; warn_timer is set when the median is within two
    orders of magnitude of the clock resolution and should be mistrusted.
    """
    if reps < 31:
        raise PreconditionError(f"need reps >= 31 for stable medians, got {reps}")
    _width(method, params)  # refuses a baseline for the other mode
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
    resolution_ns = time.get_clock_info("perf_counter").resolution * 1e9
    return {"wall_ns_median": median,
            "wall_ns_iqr": float(quartiles[2] - quartiles[0]), "reps": reps,
            "env": _cpu_model(), "warn_timer": median < 100.0 * resolution_ns}


# Text column -> (row key, divisor for a float value).
_COLUMNS = {
    "method": ("method", 1), "backend": ("backend", 1), "mode": ("mode", 1),
    "n": ("n", 1), "ell": ("ell", 1), "lam": ("lam", 1),
    "ands": ("ands", 1), "xors": ("xors", 1),
    "median_us": ("wall_ns_median", 1000.0),
    "iqr_us": ("wall_ns_iqr", 1000.0),
    "and_ratio": ("and_ratio", 1), "time_ratio": ("time_ratio", 1),
}


def _cell(value, scale) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value / scale:.3g}"
    return str(value)


def emit_table(rows: list[dict]) -> tuple[str, list[dict]]:
    """Deterministic text table plus the rows with their ratios added.

    Ratio keys compare each full-multiplication row against the affine
    row with the same (mode, n, backend): ratios above 1 mean the affine
    expansion is cheaper. Affine rows show 1 by definition; rows with no
    matching affine row show '-' (None in the returned rows).
    """
    affine = {(r["mode"], r["n"], r["backend"]): r
              for r in rows if r["method"] == Method.AFFINE.value}
    out = []
    for row in rows:
        base = affine.get((row["mode"], row["n"], row["backend"]))
        and_ratio = time_ratio = None
        if base is not None and base["ands"] > 0:
            and_ratio = row["ands"] / base["ands"]
        if (base is not None and row["wall_ns_median"] is not None
                and base["wall_ns_median"]):
            time_ratio = row["wall_ns_median"] / base["wall_ns_median"]
        out.append({**row, "and_ratio": and_ratio, "time_ratio": time_ratio})

    grid = [list(_COLUMNS)] + [
        [_cell(row[key], scale) for key, scale in _COLUMNS.values()]
        for row in out]
    widths = [max(map(len, column)) for column in zip(*grid)]
    grid.insert(1, ["-" * w for w in widths])
    text = "".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
                   + "\n" for line in grid)
    return text, out
