"""The committed mutant list: each entry must still apply to the code."""

import importlib.util
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[
    f"{i}-{pathlib.Path(m.file).stem}"
    for i, m in enumerate(mutants.MUTANTS, 1)])
def test_old_text_occurs_exactly_once(mutant):
    # a list entry whose text has moved or been edited would mutate nothing
    text = (_ROOT / mutant.file).read_text()
    assert text.count(mutant.old) == 1, (mutant.file, mutant.old)
    assert mutant.new != mutant.old and mutant.why


def test_selection_by_file_or_old_text():
    # selecting runs nothing: it only picks entries, numbered as in the list
    everything = mutants.select([])
    count = len(mutants.MUTANTS)
    assert [i for i, _ in everything] == list(range(1, count + 1))
    by_file = mutants.select(["modulus.py"])
    assert by_file and all(m.file.endswith("modulus.py") for _, m in by_file)
    assert len(by_file) == sum(m.file.endswith("modulus.py")
                               for m in mutants.MUTANTS)
    by_text = mutants.select(["_SNAP"])
    assert [(i, m.old) for i, m in by_text] == [(1, "_SNAP = 1e-9")]
    both = mutants.select(["_SNAP", "bench.py"])
    assert [i for i, _ in both] == [1, 6]
    assert mutants.select(["no such text"]) == []


def test_no_match_exits_2_without_a_run(monkeypatch, capsys):
    def no_copy():
        raise AssertionError("a mutant run started")
    monkeypatch.setattr(mutants, "tracked_files", no_copy)
    assert mutants.main(["no such text"]) == 2
    assert "no mutant matches" in capsys.readouterr().out


def test_a_verdict_names_the_first_failure_and_an_error_its_cause():
    # canned pytest output: the parsing runs no pytest
    collection = (
        "E   entroseal.errors.PreconditionError: no irreducible trinomial\n"
        "=========================== short test summary info ==="
        "=========================\n"
        "ERROR tests/test_gf2.py - entroseal.errors.PreconditionError: "
        "no irreducible trinomial or pentanomial of degree 64\n"
        "!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!\n"
        "1 error in 2.31s\n")
    assert mutants.killed_by(collection) == [
        "tests/test_gf2.py - entroseal.errors.PreconditionError: "
        "no irreducible trinomial or pentanomial of degree 64"]
    failed = (
        "ERROR    a captured log line above the summary\n"
        "=========================== short test summary info ==="
        "=========================\n"
        "FAILED tests/test_gf2.py::test_packed_step_matches_the_sieve_tables"
        " - AssertionError: 2047\n"
        "ERROR tests/test_cli.py::test_later - OSError\n"
        "1 failed, 12 passed, 1 error in 3.02s\n")
    assert mutants.killed_by(failed) == [
        "tests/test_gf2.py::test_packed_step_matches_the_sieve_tables",
        "tests/test_cli.py::test_later - OSError"]
    assert mutants.killed_by("758 passed in 59.10s\n") == []
    # the run goes on past the first failure, so a pinned digest that
    # fails first in file order does not hide the named tests that fail too
    several = (
        "FFF\n"
        "=========================== short test summary info ==="
        "=========================\n"
        "FAILED tests/test_cli.py::TestVerifyPinned::"
        "test_seed_zero_output_is_pinned[gf2] - AssertionError\n"
        "FAILED tests/test_gf2.py::test_square_mod_matches_clmul[171] - "
        "assert 1 == 0\n"
        "FAILED tests/test_gf2.py::test_fold_keeps_the_constant_term - "
        "AssertionError\n"
        "3 failed, 760 passed in 61.20s\n")
    assert mutants.killed_by(several) == [
        "tests/test_cli.py::TestVerifyPinned::"
        "test_seed_zero_output_is_pinned[gf2]",
        "tests/test_gf2.py::test_square_mod_matches_clmul[171]",
        "tests/test_gf2.py::test_fold_keeps_the_constant_term"]
