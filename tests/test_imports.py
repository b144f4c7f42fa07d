"""Every module of the package, of the test suite and of the tools uses
each name it imports, and no module of the package calls a per-k view of
the sums or reads another module's private names."""

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


# one k of an all-k function, kept for scripts outside the package
PER_K_VIEWS = {"S_brute", "D_brute", "S_fast", "D_fast"}


def test_package_calls_no_per_k_view():
    """The package reads every k from one call of an all-k function, never
    from a per-k view in a loop over k."""
    calls = {}
    for path in ROOT.glob("src/pathlab/*.py"):
        names = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        if names & PER_K_VIEWS:
            calls[path.name] = sorted(names & PER_K_VIEWS)
    assert calls == {}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _root(node: ast.expr) -> ast.expr:
    """The start of an attribute chain: ``x`` of ``x.y._z``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def test_package_reads_no_other_modules_private_names():
    """No module of the package imports another module's underscore name,
    nor reads one off a name it imported (``x._y`` or ``x.Y._z``, for a
    module x or an object imported from one): what a module keeps private,
    such as the polynomial core or a test oracle, stays in that module."""
    reads = {}
    for path in ROOT.glob("src/pathlab/*.py"):
        tree = ast.parse(path.read_text())
        aliases = [
            alias
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        imported = {(alias.asname or alias.name).partition(".")[0] for alias in aliases}
        names = {alias.name for alias in aliases if _is_private(alias.name)}
        names |= {
            ast.unparse(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and _is_private(node.attr)
            and isinstance(_root(node), ast.Name)
            and _root(node).id in imported
        }
        if names:
            reads[path.name] = sorted(names)
    assert reads == {}
