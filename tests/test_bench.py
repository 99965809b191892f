"""Cost-model tests: exact gate counts per method, timing harness
plumbing, and the deterministic report table."""

import pytest

from entroseal.bench import (Method, count_expansion, count_record, emit_table,
                             time_expansion)
from entroseal.cli import main
from entroseal.errors import PreconditionError
from entroseal.gf2 import Backend, OpCount
from entroseal.keyexpand import ExpansionParams, Mode
from entroseal.rng import RandomSource

# Exact counts for the classical n=64, ell=45 sizing (lam = 45 affine,
# 64 full-width). Schoolbook ANDs are lam^2; Karatsuba follows the
# odd-split recurrence pinned down in the gf2 suite.
FROZEN_COUNTS = {
    (Method.AFFINE, Backend.SCHOOLBOOK): OpCount(2025, 2151),
    (Method.AFFINE, Backend.KARATSUBA): OpCount(547, 2783),
    (Method.FULLMUL_CLASSICAL, Backend.SCHOOLBOOK): OpCount(4096, 4241),
    (Method.FULLMUL_CLASSICAL, Backend.KARATSUBA): OpCount(729, 4136),
}

# Karatsuba AND counts at the matched quantum sizing t=0, eps=2^-5
# (ell = n + 13, lam = max(ell, 2n - ell)), keyed by the full pad width
# 2n. Values: (affine ANDs at lam, full-width ANDs at 2n).
QUANTUM_KARATSUBA_ANDS = {
    128: (1337, 2187),
    512: (8993, 19683),
    2048: (68777, 177147),
}


class TestCountExpansion:
    def test_frozen_classical_counts(self):
        params = ExpansionParams.classical(64, 45)
        for (method, backend), want in FROZEN_COUNTS.items():
            assert count_expansion(method, params, backend) == want

    def test_quantum_matched_sizing_counts(self):
        for two_n, (affine_ands, full_ands) in QUANTUM_KARATSUBA_ANDS.items():
            n = two_n // 2
            params = ExpansionParams.quantum(n, n + 13)
            a = count_expansion(Method.AFFINE, params, Backend.KARATSUBA)
            f = count_expansion(Method.FULLMUL_QUANTUM, params,
                                Backend.KARATSUBA)
            assert a.ands == affine_ands
            assert f.ands == full_ands

    def test_full_length_key_costs_nothing(self):
        params = ExpansionParams.classical(8, 8)
        for backend in Backend:
            assert count_expansion(Method.AFFINE, params,
                                   backend) == OpCount(0, 0)

    def test_mode_mismatch(self):
        with pytest.raises(PreconditionError):
            count_expansion(Method.FULLMUL_CLASSICAL,
                            ExpansionParams.quantum(4, 3), Backend.SCHOOLBOOK)
        with pytest.raises(PreconditionError):
            count_expansion(Method.FULLMUL_QUANTUM,
                            ExpansionParams.classical(8, 4), Backend.SCHOOLBOOK)

    def test_counts_are_data_independent(self):
        params = ExpansionParams.quantum(8, 5)
        first = count_expansion(Method.AFFINE, params, Backend.KARATSUBA)
        assert count_expansion(Method.AFFINE, params,
                               Backend.KARATSUBA) == first


# The keys time_expansion measures; count_record supplies the rest.
TIMING_KEYS = {"wall_ns_median", "wall_ns_iqr", "reps", "env", "warn_timer"}


class TestTimeExpansion:
    def test_too_few_reps(self):
        params = ExpansionParams.classical(8, 5)
        with pytest.raises(PreconditionError, match="31"):
            time_expansion(Method.AFFINE, params, reps=30)

    def test_baseline_for_the_other_mode(self):
        with pytest.raises(PreconditionError):
            time_expansion(Method.FULLMUL_CLASSICAL,
                           ExpansionParams.quantum(4, 3))
        with pytest.raises(PreconditionError):
            time_expansion(Method.FULLMUL_QUANTUM,
                           ExpansionParams.classical(8, 4))

    def test_small_measurement_round_trip(self):
        params = ExpansionParams.classical(16, 9)
        timing = time_expansion(Method.AFFINE, params, reps=31,
                                rng=RandomSource(7))
        assert set(timing) == TIMING_KEYS
        row = {**count_record(Method.AFFINE, params, Backend.KARATSUBA),
               **timing}
        assert row["reps"] == 31
        assert row["wall_ns_median"] is not None and row["wall_ns_median"] > 0
        assert row["wall_ns_iqr"] is not None and row["wall_ns_iqr"] >= 0
        assert row["env"]
        assert isinstance(row["warn_timer"], bool)
        cost = count_expansion(Method.AFFINE, params, Backend.KARATSUBA)
        assert (row["ands"], row["xors"]) == (cost.ands, cost.xors)
        assert (row["n"], row["ell"], row["lam"]) == (16, 9, 9)

    def test_fullmul_measurement(self):
        params = ExpansionParams.classical(16, 9)
        timing = time_expansion(Method.FULLMUL_CLASSICAL, params, reps=31)
        assert set(timing) == TIMING_KEYS
        row = {**count_record(Method.FULLMUL_CLASSICAL, params,
                              Backend.SCHOOLBOOK), **timing}
        assert row["lam"] == 16
        assert row["mode"] == Mode.CLASSICAL.value

    def test_record_to_dict_uses_plain_values(self):
        params = ExpansionParams.classical(8, 5)
        d = count_record(Method.AFFINE, params, Backend.SCHOOLBOOK)
        assert d["method"] == "affine"
        assert d["backend"] == "schoolbook"
        assert d["mode"] == "classical"
        assert d["wall_ns_median"] is None
        assert d["reps"] == 0


EXPECTED_TABLE = "\n".join([
    "method             backend     mode       n   ell  lam  ands  xors  median_us  iqr_us  and_ratio  time_ratio",
    "-----------------  ----------  ---------  --  ---  ---  ----  ----  ---------  ------  ---------  ----------",
    "affine             schoolbook  classical  64  45   45   2025  2151  12.3       0.678   1          1",
    "fullmul-classical  schoolbook  classical  64  45   64   4096  4241  24.7       1       2.02       2",
]) + "\n"


def _paired_records():
    params = ExpansionParams.classical(64, 45)
    affine = {**count_record(Method.AFFINE, params, Backend.SCHOOLBOOK),
              "wall_ns_median": 12345.0, "wall_ns_iqr": 678.0, "reps": 31,
              "env": "testcpu"}
    full = {**count_record(Method.FULLMUL_CLASSICAL, params,
                           Backend.SCHOOLBOOK),
            "wall_ns_median": 24690.0, "wall_ns_iqr": 1000.0, "reps": 31,
            "env": "testcpu"}
    return [affine, full]


class TestEmitTable:
    def test_golden_text(self):
        text, _ = emit_table(_paired_records())
        assert text == EXPECTED_TABLE

    def test_row_ratios_and_keys(self):
        _, rows = emit_table(_paired_records())
        assert rows[0]["and_ratio"] == 1.0
        assert rows[0]["time_ratio"] == 1.0
        assert rows[1]["and_ratio"] == pytest.approx(4096 / 2025)
        assert rows[1]["time_ratio"] == pytest.approx(2.0)
        assert set(rows[0]) == {
            "method", "backend", "mode", "n", "ell", "lam", "ands", "xors",
            "wall_ns_median", "wall_ns_iqr", "reps", "env", "warn_timer",
            "and_ratio", "time_ratio",
        }

    def test_empty_records(self):
        text, rows = emit_table([])
        assert rows == []
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("method")

    def test_unmatched_record_shows_dashes(self):
        rec = _paired_records()[1]
        text, rows = emit_table([rec])
        assert rows[0]["and_ratio"] is None
        assert rows[0]["time_ratio"] is None
        assert text.splitlines()[2].rstrip().endswith("-")

    def test_count_only_records_render(self):
        params = ExpansionParams.classical(64, 45)
        rec = count_record(Method.AFFINE, params, Backend.KARATSUBA)
        text, rows = emit_table([rec])
        assert rows[0]["wall_ns_median"] is None
        body = text.splitlines()[2]
        assert "  -" in body


# `entroseal bench` stdout, byte for byte: the counts-only default table
# and one classical JSON run.
EXPECTED_DEFAULT_COUNTS = "\n".join([
    "method           backend     mode     n     ell   lam   ands     xors     median_us  iqr_us  and_ratio  time_ratio",
    "---------------  ----------  -------  ----  ----  ----  -------  -------  ---------  ------  ---------  ----------",
    "affine           schoolbook  quantum  64    77    77    5929     6159     -          -       1          -",
    "fullmul-quantum  schoolbook  quantum  64    77    128   16384    16669    -          -       2.76       -",
    "affine           karatsuba   quantum  64    77    77    1337     6827     -          -       1          -",
    "fullmul-quantum  karatsuba   quantum  64    77    128   2187     12640    -          -       1.64       -",
    "affine           schoolbook  quantum  256   269   269   72361    73171    -          -       1          -",
    "fullmul-quantum  schoolbook  quantum  256   269   512   262144   263201   -          -       3.62       -",
    "affine           karatsuba   quantum  256   269   269   8993     48543    -          -       1          -",
    "fullmul-quantum  karatsuba   quantum  256   269   512   19683    116084   -          -       2.19       -",
    "affine           schoolbook  quantum  1024  1037  1037  1075369  1078503  -          -       1          -",
    "fullmul-quantum  schoolbook  quantum  1024  1037  2048  4194304  4198477  -          -       3.9        -",
    "affine           karatsuba   quantum  1024  1037  1037  68777    390371   -          -       1          -",
    "fullmul-quantum  karatsuba   quantum  1024  1037  2048  177147   1054768  -          -       2.58       -",
]) + "\n"

EXPECTED_CLASSICAL_JSON = """\
[
  {
    "method": "affine",
    "backend": "schoolbook",
    "mode": "classical",
    "n": 64,
    "ell": 47,
    "lam": 47,
    "ands": 2209,
    "xors": 2237,
    "wall_ns_median": null,
    "wall_ns_iqr": null,
    "reps": 0,
    "env": "",
    "warn_timer": false,
    "and_ratio": 1.0,
    "time_ratio": null
  },
  {
    "method": "fullmul-classical",
    "backend": "schoolbook",
    "mode": "classical",
    "n": 64,
    "ell": 47,
    "lam": 64,
    "ands": 4096,
    "xors": 4241,
    "wall_ns_median": null,
    "wall_ns_iqr": null,
    "reps": 0,
    "env": "",
    "warn_timer": false,
    "and_ratio": 1.854232684472612,
    "time_ratio": null
  }
]
"""


class TestBenchOutput:
    def test_default_counts_text(self, capsys):
        assert main(["bench", "--sizes", "64,256,1024"]) == 0
        assert capsys.readouterr().out == EXPECTED_DEFAULT_COUNTS

    def test_classical_counts_json(self, capsys):
        assert main(["bench", "--sizes", "64", "--t", "32",
                     "--epsilon", "2^-10", "--mode", "classical",
                     "--backends", "schoolbook", "--format", "json"]) == 0
        assert capsys.readouterr().out == EXPECTED_CLASSICAL_JSON
