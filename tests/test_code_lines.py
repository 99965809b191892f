"""The code-line counter behind the line figures in ROADMAP and CHANGES."""

import importlib.util
import pathlib

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Seven lines hold code: the import, the class line, both lines of the
# string bound to x (not a docstring), the def and both return lines.
SNIPPET = '''\
"""Module docstring,
over two lines."""

import os  # a comment after code counts

# a whole-line comment does not


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        """Function docstring."""
        return (os.sep +
                "")
'''


def test_snippet_count():
    assert code_lines.code_lines(SNIPPET) == 7


def test_counts_per_file_and_total(tmp_path, capsys):
    one = tmp_path / "one.py"
    one.write_text(SNIPPET)
    two = tmp_path / "two.py"
    two.write_text("async def g():\n    '''Doc.'''\n    await g()\n")
    assert code_lines.main([str(one), str(two)]) == 0
    assert capsys.readouterr().out.split() == [
        "7", str(one), "2", str(two), "9", "total"]
