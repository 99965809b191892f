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
