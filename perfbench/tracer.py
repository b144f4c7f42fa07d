"""Per-function call counts and self times for pathlab, collected from outside.

:meth:`Tracer.install` wraps every public function of every imported
``pathlab`` module, and every method written in the source of a pathlab class,
then rebinds each wrapper wherever the original was bound: the defining
module, every module that imported the name with ``from ... import``, and the
module-level tables that hold functions (``verify.CHECKS``).  A call that
reaches an original through a binding left unwrapped is missed; comparing the
counts with ``cProfile`` on the same input finds such misses.

``calls`` counts what ``cProfile`` counts: one per call of a plain function,
and one per resumption of a generator (every ``next``, the final one that
raises ``StopIteration``, and the close of a suspended generator).  Self time
is the time inside a call minus the time inside wrapped calls it made.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.util
import os
import sys
import time
import types
from collections import Counter
from pathlib import Path

PACKAGE = "pathlab"

# What counts as a useful outcome, for the functions whose waste is measured.
# Attribute reads only: calling a method of the result would itself be counted.
OUTCOMES = {
    "adr.is_adr": lambda witness: bool(witness.valid_shifts),
    "cutting.psi": lambda image: image is not None,
}


def code_id(fn, src_root: Path) -> str:
    """Identity of a function's code as cProfile keys it, relative to src."""
    code = fn.__code__
    try:
        name = str(Path(code.co_filename).resolve().relative_to(src_root))
    except ValueError:
        name = code.co_filename
    return f"{name}:{code.co_firstlineno}:{code.co_name}"


class Tracer:
    def __init__(self, src_root: Path):
        self.src_root = src_root
        # key -> [calls, yields, hits, self_s]
        self.stats: dict[str, list] = {}
        self.code: dict[str, str] = {}
        self.edges: Counter = Counter()  # (caller key, callee key) -> calls
        self._stack: list[list] = [[None, 0.0]]  # [key, time in wrapped children]
        self._wrappers: dict = {}  # original function -> its wrapper
        self._dump_dir: Path | None = None

    # ------------------------------------------------------------ wrapping

    def _register(self, key: str, fn) -> list:
        self.code[key] = code_id(fn, self.src_root)
        return self.stats.setdefault(key, [0, 0, 0, 0.0])

    def _wrap_function(self, fn, key: str):
        stat = self._register(key, fn)
        stack, edges, clock = self._stack, self.edges, time.perf_counter
        outcome = OUTCOMES.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stat[0] += 1
                stat[3] += elapsed - frame[1]
                edges[parent[0], key] += 1
            if outcome is not None and outcome(result):
                stat[2] += 1
            return result

        return wrapper

    def _wrap_generator(self, fn, key: str):
        stat = self._register(key, fn)
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        def resume(step, it):
            parent = stack[-1]
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return step(it)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stat[0] += 1
                stat[3] += elapsed - frame[1]
                edges[parent[0], key] += 1

        def drive(it):
            while True:
                try:
                    value = resume(next, it)
                except StopIteration:
                    return
                stat[1] += 1
                try:
                    yield value
                except GeneratorExit:
                    resume(type(it).close, it)
                    raise

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return drive(fn(*args, **kwargs))

        return wrapper

    def _wrap(self, fn, prefix: str):
        """One wrapper per function object, shared by all names bound to it
        (``__radd__ = __add__``), keyed by module and qualified name."""
        if fn not in self._wrappers:
            key = f"{prefix}.{fn.__qualname__}"
            make = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap_function
            self._wrappers[fn] = make(fn, key)
        return self._wrappers[fn]

    def _wrap_class(self, cls: type, prefix: str, source: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                continue
            if isinstance(attr, property) and _in_source(attr.fget, source):
                getter = self._wrap(attr.fget, prefix)
                wrapped = property(getter, attr.fset, attr.fdel, attr.__doc__)
            elif isinstance(attr, (classmethod, staticmethod)) and _in_source(
                attr.__func__, source
            ):
                wrapped = type(attr)(self._wrap(attr.__func__, prefix))
            elif isinstance(attr, types.FunctionType) and _in_source(attr, source):
                wrapped = self._wrap(attr, prefix)
            else:
                continue
            setattr(cls, name, wrapped)

    def install(self) -> None:
        """Wrap and rebind; call once, after importing the modules to trace."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith(PACKAGE + ".") and module is not None
        ]
        modules.append(sys.modules[PACKAGE])
        for module in modules:
            prefix = module.__name__.split(".", 1)[-1]
            source = getattr(module, "__file__", None)
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not name.startswith("_"):
                    self._wrap(obj, prefix)
                elif isinstance(obj, type):
                    self._wrap_class(obj, prefix, source)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("__"):
                    continue
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    setattr(module, name, self._wrappers[obj])
                elif isinstance(obj, dict):
                    _rebind_table(obj, self._wrappers)

    # ------------------------------------------------------ worker processes

    def follow_forks(self, dump_dir: Path) -> None:
        """Have every process that multiprocessing forks from here start from
        zero and write its own stats to ``dump_dir`` when it exits."""
        self._dump_dir = dump_dir
        multiprocessing.util.register_after_fork(self, Tracer._start_in_child)

    def _start_in_child(self) -> None:
        self.reset()
        multiprocessing.util.Finalize(self, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = self._dump_dir / f"trace-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0, 0, 0.0]
        self.edges.clear()
        del self._stack[1:]
        self._stack[0][1] = 0.0

    def snapshot(self) -> dict:
        return {
            "functions": {
                key: {
                    "calls": stat[0],
                    "yields": stat[1],
                    "hits": stat[2],
                    "self_s": stat[3],
                    "code": self.code[key],
                }
                for key, stat in self.stats.items()
            },
            "edges": {f"{a}>{b}": n for (a, b), n in self.edges.items()},
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum snapshots taken in different processes or operations."""
    functions: dict[str, dict] = {}
    edges: Counter = Counter()
    for snap in snapshots:
        for key, entry in snap["functions"].items():
            acc = functions.setdefault(key, dict(entry, calls=0, yields=0, hits=0, self_s=0.0))
            for field in ("calls", "yields", "hits", "self_s"):
                acc[field] += entry[field]
        edges.update(snap["edges"])
    return {"functions": functions, "edges": dict(edges)}


def _in_source(fn, source: str | None) -> bool:
    # dataclass-generated methods are compiled from strings and have no file
    return isinstance(fn, types.FunctionType) and fn.__code__.co_filename == source


def _rebind_table(table: dict, wrappers: dict) -> None:
    for key, value in list(table.items()):
        if isinstance(value, types.FunctionType) and value in wrappers:
            table[key] = wrappers[value]
        elif isinstance(value, tuple) and any(
            isinstance(v, types.FunctionType) and v in wrappers for v in value
        ):
            table[key] = tuple(
                wrappers.get(v, v) if isinstance(v, types.FunctionType) else v
                for v in value
            )
