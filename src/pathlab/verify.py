"""Named verification suites over exhaustive ranges.

Each check sweeps every instance of one size n and returns a witness for
the first failure, or None when all pass; :func:`run_suite` reports each size
as a :class:`Report`, and a check that raises a pathlab error fails with the
error as its witness.  The suites back both the test suite and the
``pathlab verify`` command; sizes can be distributed over worker processes
since every (check, n) cell is independent and deterministic.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import adr, bridge, cutting, enumeration, paths, poly, schedule


@dataclass(frozen=True)
class Report:
    check_id: str
    params: dict = field(default_factory=dict)
    ok: bool = True
    witness: str = ""
    elapsed: float = 0.0

    def line(self) -> str:
        """Deterministic data line; elapsed is reported separately."""
        status = "PASS" if self.ok else "FAIL"
        params = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        extra = f" witness: {self.witness}" if self.witness else ""
        return f"{self.check_id}[{params}] {status}{extra}"


# ---------------------------------------------------------------- checks


def check_schedule_formula(n: int) -> str | None:
    """Fiberwise: for every realized shifted diagonal word, the (q, t) sum of
    q^dinv t^area over its fiber equals the closed form, and the fiber size
    equals the product of the schedule numbers."""
    for k in range(n):
        fibers = enumeration.fibers_by_sdw(enumeration.PathFamily(n, k, "square"))
        for sdw, (count, qt) in fibers.items():
            if qt != schedule.schedule_rhs(sdw):
                return f"{sdw} qt mismatch"
            if count != schedule.count_by_sdw(sdw):
                return f"{sdw} count mismatch"
    return None


def check_interval(n: int) -> str | None:
    """For plain permutations: whenever every schedule number is positive,
    the set of schedule values is an initial segment {1, ..., j}."""
    for values in itertools.permutations(range(1, n + 1)):
        word = schedule.DecoratedPermutation(values, frozenset())
        for s in range(len(schedule.decreasing_runs(word))):
            sched = schedule.schedule_numbers(schedule.ShiftedDiagonalWord(word, s))
            if all(w > 0 for w in sched):
                wanted = set(range(1, max(sched) + 1))
                if set(sched) != wanted:
                    return f"{values} shift {s}: {sched}"
    return None


def check_cancellation_word(n: int) -> str | None:
    """Brute signed square sums match the word-level fast sums for every k,
    and vanish when n - k is even."""
    for k in range(n):
        brute = enumeration.S_brute(n, k)
        if (n - k) % 2 == 0 and brute != poly.TPoly():
            return f"S({n},{k}) nonzero"
        if brute != adr.S_fast(n, k):
            return f"S({n},{k}) mismatch"
        dyck_brute = enumeration.D_brute(n, k)
        if dyck_brute != adr.D_fast(n, k):
            return f"D({n},{k}) mismatch"
    return None


def check_cancellation_path(n: int) -> str | None:
    """Brute signed square sums match the path-side class polynomials: one
    t^area per cutting-cycle class of schedule-one paths (n - k odd)."""
    for k in range(n):
        if (n - k) % 2 == 0:
            continue
        if enumeration.S_brute(n, k) != bridge.classes_polynomial(n, k):
            return f"k={k}"
    return None


def check_dinv_ladder(n: int) -> str | None:
    """Every schedule-one path lies in its own cycle, which has size n - k,
    and its canonical member is the cycle's dinv-0 member.  Each such cycle
    is checked once, however many schedule-one members it has: dinv values
    ladder 0..size-1, area and diagonal word are constant, and the geometric
    ordering from the dinv-0 member reproduces the ladder."""
    ladders: dict[frozenset, tuple[paths.DecoratedLabeledPath, ...]] = {}
    for seed in enumeration.schedule_one_paths(n):
        k = len(seed.decorations)
        cycle = cutting.cutting_cycle(seed)
        if len(cycle.members) != n - k:
            return f"{seed} size {len(cycle.members)}"
        if seed not in cycle.members:
            return f"{seed} not in its own cycle"
        ladder = ladders.get(cycle.members)
        if ladder is None:
            ladder = cycle.ladder()
            witness = _ladder_cycle_witness(cycle, ladder)
            if witness is not None:
                return f"{seed} {witness}"
            ladders[cycle.members] = ladder
        if cutting.canonical_rep(seed) != ladder[0]:
            return f"{seed} canonical is not the dinv-0 member"
    return None


def _ladder_cycle_witness(
    cycle: cutting.CuttingCycle, ladder: tuple[paths.DecoratedLabeledPath, ...]
) -> str | None:
    """The per-cycle part of :func:`check_dinv_ladder`."""
    base = ladder[0]
    word = schedule.diagonal_word(base).word
    for member in ladder:
        if schedule.diagonal_word(member).word != word:
            return "word not constant"
        if paths.area(member) != paths.area(base):
            return "area not constant"
    geometric = [cutting.psi(base, i) for i in cutting.geometric_order(base)]
    if geometric != list(ladder):
        return "geometric order differs"
    listed = cutting.sched_one_members(cycle)
    criterion = [
        q
        for q in ladder
        if sum(
            1
            for i, d in enumerate(paths.area_word(q), start=1)
            if d == 0 and i not in q.decorations
        )
        == 1
    ]
    if sorted(map(str, listed)) != sorted(map(str, criterion)):
        return "schedule-one members differ"
    return None


def check_shape(n: int) -> str | None:
    """Every schedule-one path splits into the three stretches."""
    for seed in enumeration.schedule_one_paths(n):
        stretch = cutting.shape_stretches(seed)
        if stretch.head + stretch.body + stretch.tail != seed.steps:
            return f"{seed}: stretches do not tile"
    return None


def check_partition(n: int) -> str | None:
    """Cutting cycles partition every family: members of a cycle have cycles
    with the same member set, and distinct cycle member sets are disjoint."""
    for k in range(n):
        seen: dict[paths.DecoratedLabeledPath, frozenset] = {}
        for path in enumeration.generate(enumeration.PathFamily(n, k, "square")):
            members = cutting.cutting_cycle(path).members
            if path not in members:
                return f"{path} not in own cycle"
            for member in members:
                prior = seen.get(member)
                if prior is not None and prior != members:
                    return f"{path} overlaps {member}"
                seen[member] = members
    return None


def check_decorate_unique(n: int) -> str | None:
    """Exactly one decoration set per permutation yields an ADR word with an
    odd number of undecorated letters, and it is the parity-algorithm output;
    exactly one yields a flat ADR word, the shift-zero-algorithm output."""
    positions = list(range(1, n + 1))
    for values in itertools.permutations(range(1, n + 1)):
        odd, flat = [], []
        for r in range(n + 1):
            for combo in itertools.combinations(positions, r):
                word = schedule.DecoratedPermutation(values, frozenset(combo))
                witness = adr.is_adr(word)
                if witness and word.undecorated_count() % 2 == 1:
                    odd.append(word)
                if 0 in witness.valid_shifts:
                    flat.append(word)
        if odd != [adr.parity_decorate(values)]:
            return f"{values}: odd {odd}"
        if flat != [adr.dyck_decorate(values)]:
            return f"{values}: flat {flat}"
    return None


def check_phi_bijection(n: int) -> str | None:
    """phi maps the odd-undecorated ADR words bijectively onto the flat ADR
    words of the same size, preserving letters, revmaj, and shifting the
    decoration count by at most one."""
    images = {}
    for values in itertools.permutations(range(1, n + 1)):
        word = adr.parity_decorate(values)
        image = adr.phi(word)
        if image.values != word.values:
            return f"{word} letters changed"
        if schedule.revmaj(image) != schedule.revmaj(word):
            return f"{word} revmaj changed"
        if not adr.is_flat_adr(image):
            return f"{word} image not flat"
        if abs(len(image.decorated) - len(word.decorated)) > 1:
            return f"{word} decoration jump"
        if image in images:
            return f"{image} hit twice"
        images[image] = word
        if adr.dyck_decorate(values) != image:
            return f"{word} not algorithm output"
    return None


def check_delta_bijection(n: int) -> str | None:
    """delta over all m and all flat ADR words of size n - 1 produces each
    odd-undecorated ADR word of size n exactly once, raising revmaj by n - m."""
    produced = {}
    for values in itertools.permutations(range(1, n)):
        word = adr.dyck_decorate(values) if n > 1 else None
        source_words = [word] if word is not None else [
            schedule.DecoratedPermutation((), frozenset())
        ]
        for source in source_words:
            base = schedule.revmaj(source)
            for m in range(1, n + 1):
                image = adr.delta(m, source)
                if schedule.revmaj(image) != base + n - m:
                    return f"delta({m}, {source}) revmaj"
                if image in produced:
                    return f"{image} hit twice"
                produced[image] = (m, source)
    expected = {
        adr.parity_decorate(values)
        for values in itertools.permutations(range(1, n + 1))
    }
    if set(produced) != expected:
        return "image set differs"
    return None


def check_recursion(n: int) -> str | None:
    """S(n, k) = [n]_t (D(n-1, k) + D(n-1, k-1)) for n - k odd via the fast
    word-level sums."""
    for k in range(n):
        if adr.S_fast(n, k) != adr.S_recursive(n, k):
            return f"k={k}"
    return None


def check_sum_factorial(n: int) -> str | None:
    """Summing either fast enumerator over all k gives [n]_t!."""
    total_s = poly.TPoly()
    total_d = poly.TPoly()
    for k in range(n):
        total_s = total_s + adr.S_fast(n, k)
        total_d = total_d + adr.D_fast(n, k)
    if total_s != poly.t_factorial(n):
        return f"sum S = {total_s}"
    if total_d != poly.t_factorial(n):
        return f"sum D = {total_d}"
    return None


def check_euler(n: int) -> str | None:
    """For odd n the undecorated signed square sum has the alternating-
    permutation closed form; for even n no parity-algorithm output is
    undecorated, which is why S(n, 0) vanishes there."""
    if n % 2 == 1:
        if adr.S_fast(n, 0) != adr.euler_specialization(n):
            return f"S({n},0) != closed form"
        return None
    for values in itertools.permutations(range(1, n + 1)):
        if not adr.parity_decorate(values).decorated:
            return f"{values}: parity output undecorated"
    return None


def check_sdw_area(n: int) -> str | None:
    """area equals revmaj of the diagonal word for every path."""
    for k in range(n):
        for path in enumeration.generate(enumeration.PathFamily(n, k, "square")):
            if paths.area(path) != schedule.revmaj(schedule.diagonal_word(path).word):
                return str(path)
    return None


CHECKS: dict[str, tuple[Callable[[int], str | None], int]] = {
    # check_id -> (function of n, default max_n)
    "schedule-formula": (check_schedule_formula, 5),
    "interval": (check_interval, 7),
    "cancellation-word": (check_cancellation_word, 5),
    "cancellation-path": (check_cancellation_path, 5),
    "dinv-ladder": (check_dinv_ladder, 6),
    "shape": (check_shape, 6),
    "partition": (check_partition, 5),
    "decorate-unique": (check_decorate_unique, 6),
    "phi-bijection": (check_phi_bijection, 7),
    "delta-bijection": (check_delta_bijection, 7),
    "recursion": (check_recursion, 12),
    "sum-factorial": (check_sum_factorial, 12),
    "euler": (check_euler, 7),
    "sdw-area": (check_sdw_area, 5),
}


def _run_cell(args: tuple[str, int]) -> Report:
    check_id, n = args
    start = time.perf_counter()
    try:
        witness = CHECKS[check_id][0](n)
    except ValueError as exc:  # every pathlab error, e.g. a broken ladder
        witness = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return Report(check_id, {"n": n}, witness is None, witness or "", elapsed)


def run_suite(
    check_id: str, max_n: int | None = None, jobs: int = 1
) -> Iterator[Report]:
    """Run one named suite for n = 1..max_n, across at most ``jobs`` worker
    processes and never more than one per size; reports come back in order
    of n regardless of worker scheduling."""
    if check_id not in CHECKS:
        raise KeyError(f"unknown check {check_id!r}; known: {sorted(CHECKS)}")
    if max_n is None:
        max_n = CHECKS[check_id][1]
    cells = [(check_id, n) for n in range(1, max_n + 1)]
    if jobs <= 1 or len(cells) <= 1:
        for cell in cells:
            yield _run_cell(cell)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        yield from pool.map(_run_cell, cells)
