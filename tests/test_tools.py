"""The code-size counter that quotes a change's size in lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_size", ROOT / "tools" / "code_size.py")
code_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_size)

SOURCE = '''"""A module docstring
over two lines."""

import os

# a comment alone on its line


def f(x):
    """A function docstring."""
    y = (x +  # a comment after code
         1)
    return os.sep * y
'''


def test_code_size_counts_code_lines_and_statements():
    # code lines: the import, the def, the two lines of the assignment and
    # the return; statements: the two docstrings' expressions, the import,
    # the def, the assignment and the return
    assert code_size.code_size(SOURCE) == (5, 6)


def test_main_prints_a_total_for_both_trees(capsys):
    assert code_size.main() == 0
    totals = [line for line in capsys.readouterr().out.splitlines() if " total: " in line]
    assert [line.split(" total: ")[0] for line in totals] == ["src/pathlab", "tests"]
    assert all(line.endswith(" statements") for line in totals)
