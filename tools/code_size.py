"""Count code lines and statements per module of ``src/pathlab`` and ``tests``.

A code line holds a token other than a comment, outside docstrings; a
statement is an ``ast.stmt`` node.  Standard library only.  Run from the
repository root::

    python3 tools/code_size.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src/pathlab", "tests")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_size(source: str) -> tuple[int, int]:
    """(code lines, statements) of one module's source."""
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    return len(lines - docstrings), statements


def main() -> int:
    for tree in TREES:
        total_lines = total_statements = 0
        for path in sorted((ROOT / tree).glob("*.py")):
            lines, statements = code_size(path.read_text())
            print(f"{tree}/{path.name}: {lines} lines, {statements} statements")
            total_lines += lines
            total_statements += statements
        print(f"{tree} total: {total_lines:,} lines, {total_statements:,} statements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
