"""The benchmark's per-layer metrics name functions that exist.

``perfbench/run.py`` reads a per-function metric as 0 when its
``module.func`` is missing, so a renamed kernel would silently zero the
metric.  The name tuples are read from the source with ``ast``, without
importing the benchmark."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TUPLES = ("TIMED_FUNCTIONS", "COUNTED_FUNCTIONS", "YIELDING_FUNCTIONS")
# deleted from src/ while the benchmark still names it (a FOUND line in
# CHANGES.md); its metric reads 0 until the benchmark drops it
KNOWN_STALE = {"enumeration.standard_labelings"}


def benchmark_names() -> dict[str, tuple[str, ...]]:
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in TUPLES
    }


def test_named_functions_resolve():
    names = benchmark_names()
    assert sorted(names) == sorted(TUPLES)
    missing = []
    for key in (key for keys in names.values() for key in keys):
        module, _, func = key.partition(".")
        if key not in KNOWN_STALE and not callable(
            getattr(importlib.import_module(f"pathlab.{module}"), func, None)
        ):
            missing.append(key)
    assert missing == []
