"""Every module of the package, of the test suite and of the tools uses
each name it imports."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_unused_imports():
    unused = {}
    for path in [*ROOT.glob("src/pathlab/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("tools/*.py")]:
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}
