"""Every module of the package, of the test suite and of the tools uses
each name it imports, no module of the package calls a per-k view of the
sums or reads another module's private names, and every public name of the
package has a reader."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_unused_machinery():
    """Importing every module of the package, as each ``pathlab`` command
    does, loads neither a process pool executor nor ``dataclasses`` or
    ``inspect`` (together about 20 ms of each command's start).  It does
    load ``locale``, which argparse would otherwise import during a
    command's first parser message."""
    modules = sorted(path.stem for path in ROOT.glob("src/pathlab/*.py"))
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        f"from pathlab import {', '.join(modules)}; "
        "print(*sorted(m for m in ('concurrent.futures', 'dataclasses', 'inspect', "
        "'locale') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "locale\n"), out.stderr


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


# public names that nothing in src/pathlab or perfbench/ reads yet, each
# with the reason it stays
UNREAD_PUBLIC = {
    "enumeration.qt_sums": "the path side of ROADMAP items 1, 18 and 19",
}


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name read as a bare name or an attribute in the tree, outside
    the node ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_has_a_reader():
    """Every public module-level function or class of the package is read
    somewhere in the package outside its own definition, or named in
    ``perfbench/*.py`` (parsed, not imported: a name read there, or a
    ``"module.func"`` string such as the benchmark's metric names), or
    listed in ``UNREAD_PUBLIC``, which holds no name that has a reader."""
    trees = {path.stem: ast.parse(path.read_text()) for path in ROOT.glob("src/pathlab/*.py")}
    bench = set()
    for path in ROOT.glob("perfbench/*.py"):
        tree = ast.parse(path.read_text())
        bench |= _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                module, _, name = node.value.partition(".")
                if module in trees:
                    bench.add(name)
    unread = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in bench
        and not any(node.name in _reads(other, node) for other in trees.values())
    ]
    assert sorted(unread) == sorted(UNREAD_PUBLIC)
