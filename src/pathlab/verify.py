"""Named verification suites over exhaustive ranges.

Each check sweeps every instance of one size n, or of one shard of it, and
returns a witness for the first failure, or None when all pass;
:func:`run_suite` reports each size as a :class:`Report`, and a check that
raises a pathlab error fails with the error as its witness.  The suites back
both the test suite and the ``pathlab verify`` command.

A check sweeps only what its invariant can depend on: ``sdw-area`` takes
the undecorated labelings of each step word, since decorations change
neither area nor revmaj, and ``euler`` reads the undecorated sums off the
insertion DP of the word sums.

The suites in :data:`SHARDED` split size n into n shards along the loop the
check already runs: k, the first letter of a permutation, the m of delta,
the area mod n of a schedule-one path, or the area mod n of the paths of a
fiber.  Such a check runs one key, ``check(n, shard)``, and a size is its n
cells.  A shard may read the key of every item to find its own, but it
repeats no other shard's work, except in ``delta-bijection``: every m shard
decorates all (n - 1)! sources again, since keying it by the source would
leave some cells empty.
Every (check, n, shard) cell is independent and deterministic; a shard
reuses no result another cell cached, so it does the same work on whichever
worker runs it.  Cells are spread over worker processes and merged back into
one report per size.  Each worker is a :class:`multiprocessing.Process`
with one pipe: the parent sends it a cell, largest n first, whenever it
answers the last one, and ``None`` when no cell is left.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import multiprocessing.connection
import time
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple

from . import adr, bridge, cutting, enumeration, paths, poly, schedule


class Report(NamedTuple):
    check_id: str
    params: dict
    ok: bool
    witness: str
    elapsed: float
    shards: int = 1

    def line(self) -> str:
        """Deterministic data line; elapsed is reported separately."""
        status = "PASS" if self.ok else "FAIL"
        params = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        extra = f" witness: {self.witness}" if self.witness else ""
        return f"{self.check_id}[{params}] {status}{extra}"


# ---------------------------------------------------------------- shards


def _permutations(n: int, shard: int) -> Iterator[tuple[int, ...]]:
    """The permutations of 1..n that start with shard + 1, in lexicographic
    order."""
    rest = [v for v in range(1, n + 1) if v != shard + 1]
    for tail in itertools.permutations(rest):
        yield (shard + 1, *tail)


# ---------------------------------------------------------------- checks


def check_schedule_formula(n: int, shard: int) -> str | None:
    """Fiberwise: for every realized shifted diagonal word, the (q, t) sum of
    q^dinv t^area over its fiber equals the closed form.  At q = t = 1 the
    closed form is the product of the schedule numbers, so the fiber size
    follows.  Sharded by area mod n: a fiber's paths share their area, the
    revmaj of its word (``sdw-area``), so each fiber lies in one shard, and
    one walk of the shard's step words gives its fibers for every k
    (:func:`~pathlab.enumeration.fibers_by_sdw`)."""
    for fibers in enumeration.fibers_by_sdw(n, "square", shard):
        for sdw, qt in fibers.items():
            if qt != schedule.schedule_rhs(sdw):
                return f"{sdw} qt mismatch"
    return None


def check_interval(n: int, shard: int) -> str | None:
    """For plain permutations: whenever every schedule number is positive,
    the set of schedule values is an initial segment {1, ..., j}.  Sharded by
    first letter."""
    for values in _permutations(n, shard):
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
    brute, dyck_brute = enumeration.signed_sums(n), enumeration.signed_sums(n, "dyck")
    fast, dyck_fast = adr.fast_sums(n), adr.fast_sums(n, "dyck")
    for k in range(n):
        if (n - k) % 2 == 0 and brute[k] != poly.TPoly():
            return f"S({n},{k}) nonzero"
        if brute[k] != fast[k]:
            return f"S({n},{k}) mismatch"
        if dyck_brute[k] != dyck_fast[k]:
            return f"D({n},{k}) mismatch"
    return None


def check_cancellation_path(n: int, shard: int) -> str | None:
    """The cutting-cycle classes of schedule-one paths match the all-ones
    words, and give the brute signed square sums:

    - no two classes share a diagonal word, and each class's area is its
      word's revmaj;
    - each class has one schedule-one member per all-ones shift of its word;
    - the class words are exactly the all-ones (ADR) words of size n;
    - the brute sum S(n, k) is one t^area per class with k decorations
      (n - k odd).

    Sharded by area mod n, which is revmaj mod n on the word side: a shard
    takes its classes from one schedule-one stream for all k, and sweeps the
    permutations whose revmaj falls in it.  The word sweep needs no cap at
    n - 1 decorations, the most a path carries: a decorated letter must have
    low schedule value 1, and in a fully decorated word every letter's is
    0, so no such word is ADR."""
    classes = bridge.classes(n, shard)
    members = {}
    for canon, count in classes.items():
        word = schedule.diagonal_word(canon).word
        if word in members:
            return f"{word} names two classes"
        if paths.area(canon) != schedule.revmaj(word):
            return f"{canon} area is not revmaj of {word}"
        members[word] = count
    for values in itertools.permutations(range(1, n + 1)):
        if schedule.revmaj(values) % n != shard:
            continue
        for witness in adr.adr_decorations(values):
            word, shifts = witness.word, witness.valid_shifts
            count = members.pop(word, None)
            if count is None:
                return f"{word} names no class"
            if count != len(shifts):
                return f"{word} has {count} schedule-one members for {len(shifts)} shifts"
    if members:
        return f"{next(iter(members))} is not an all-ones word"
    brute = enumeration.signed_sums(n, "square", shard)
    for k in range(n):
        if (n - k) % 2 == 0:
            continue
        got = Counter(paths.area(c) for c in classes if len(c.decorations) == k)
        if brute[k] != poly.TPoly.from_counts(got):
            return f"k={k}"
    return None


def check_dinv_ladder(n: int, shard: int) -> str | None:
    """Every schedule-one path's canonical member is the dinv-0 member of its
    cycle.  Each such cycle is built once, as a ladder from the first seed
    met in it, and checked once, however many schedule-one members it has:
    it has size n - k and holds that seed, its dinv values are 0..size-1,
    area and diagonal word are constant, and the geometric ordering from the
    dinv-0 member reproduces the ladder.  A later seed is looked up in the
    ladders built so far; cutting and pasting is a group action, so its own
    cycle is the one that holds it (``partition`` checks that for every
    path).  Sharded by area mod n, which keeps every cycle inside one
    shard."""
    ladders: dict[paths.DecoratedLabeledPath, tuple[paths.DecoratedLabeledPath, ...]] = {}
    for seed in enumeration.schedule_one_paths(n, shard):
        ladder = ladders.get(seed)
        if ladder is None:
            ladder = cutting.ordered_cycle(seed)
            if len(ladder) != n - len(seed.decorations):
                return f"{seed} size {len(ladder)}"
            if seed not in ladder:
                return f"{seed} not in its own cycle"
            witness = _ladder_cycle_witness(ladder)
            if witness is not None:
                return f"{seed} {witness}"
            ladders.update(dict.fromkeys(ladder, ladder))
        if cutting.canonical_rep(seed) != ladder[0]:
            return f"{seed} canonical is not the dinv-0 member"
    return None


def _ladder_cycle_witness(ladder: tuple[paths.DecoratedLabeledPath, ...]) -> str | None:
    """The per-cycle part of :func:`check_dinv_ladder`; each member's
    diagonal word is computed once, and its ladder position, which comes
    from :func:`~pathlab.cutting.cycle_dinvs`, is checked against
    :func:`~pathlab.paths.dinv`.  Once the word is known constant, its
    all-ones shifts are found once for the whole cycle, and a member's
    schedule word is all ones when its shift is one of them."""
    base = ladder[0]
    words = {member: schedule.diagonal_word(member) for member in ladder}
    word, base_area = words[base].word, paths.area(base)
    for position, member in enumerate(ladder):
        if paths.dinv(member) != position:
            return "ladder differs from dinv"
        if words[member].word != word:
            return "word not constant"
        if paths.area(member) != base_area:
            return "area not constant"
    geometric = [cutting.psi(base, i) for i in cutting.geometric_order(base)]
    if geometric != list(ladder):
        return "geometric order differs"
    ones = schedule.ones_shifts(word)
    listed = {q for q in ladder if words[q].shift in ones}
    criterion = {
        q
        for q in ladder
        if sum(
            1
            for i, d in enumerate(paths.area_word(q), start=1)
            if d == 0 and i not in q.decorations
        )
        == 1
    }
    if listed != criterion:
        return "schedule-one members differ"
    return None


def check_shape(n: int, shard: int) -> str | None:
    """Every schedule-one path splits into the three stretches; a path that
    does not raises :class:`~pathlab.cutting.ShapeViolation`, which fails the
    cell.  Sharded by area mod n."""
    for seed in enumeration.schedule_one_paths(n, shard):
        cutting.shape_stretches(seed)
    return None


def check_partition(n: int, shard: int) -> str | None:
    """Cutting cycles partition every family: each path's cycle holds it and
    has n - k members, members of a cycle have cycles with the same member
    set, and distinct cycle member sets are disjoint.  Sharded by k.

    Each distinct member set is compared with the members seen so far
    once, when it first appears; a path whose member set is already
    recorded passes."""
    cycles: set[frozenset] = set()
    seen: set[paths.DecoratedLabeledPath] = set()  # members of the sets in cycles
    for path in enumeration.generate(enumeration.PathFamily(n, shard, "square")):
        members = cutting.cutting_cycle(path).members
        if len(members) != n - shard:
            return f"{path} cycle size {len(members)}"
        if path not in members:
            return f"{path} not in own cycle"
        if members in cycles:
            continue
        for member in members:
            if member in seen:
                return f"{path} overlaps {member}"
        seen |= members
        cycles.add(members)
    return None


def check_decorate_unique(n: int, shard: int) -> str | None:
    """Exactly one decoration set per permutation yields an ADR word with an
    odd number of undecorated letters, and it is the parity-algorithm output;
    exactly one yields a flat ADR word, the shift-zero-algorithm output.
    Sharded by first letter."""
    for values in _permutations(n, shard):
        witnesses = list(adr.adr_decorations(values))
        odd = [w.word for w in witnesses if w.word.undecorated_count() % 2 == 1]
        flat = [w.word for w in witnesses if 0 in w.valid_shifts]
        if odd != [adr.parity_decorate(values)]:
            return f"{values}: odd {odd}"
        if flat != [adr.dyck_decorate(values)]:
            return f"{values}: flat {flat}"
    return None


def check_phi_bijection(n: int, shard: int) -> str | None:
    """phi maps the odd-undecorated ADR words bijectively onto the flat ADR
    words of the same size, preserving letters, so revmaj, and shifting the
    decoration count by at most one.  Sharded by first letter.  phi keeps
    the letters and each permutation is visited once, so no two images can
    collide."""
    for values in _permutations(n, shard):
        word = adr.parity_decorate(values)
        image = adr.phi(word)
        if image.values != word.values:
            return f"{word} letters changed"
        if not adr.is_flat_adr(image):
            return f"{word} image not flat"
        if abs(len(image.decorated) - len(word.decorated)) > 1:
            return f"{word} decoration jump"
        if adr.dyck_decorate(values) != image:
            return f"{word} not algorithm output"
    return None


def check_delta_bijection(n: int, shard: int) -> str | None:
    """delta over all m and all flat ADR words of size n - 1 produces each
    odd-undecorated ADR word of size n exactly once, raising revmaj by n - m.

    Sharded by m, and checked word by word: a word w of the shard starts
    with m, and delta's letter map v -> (v + m - 1) mod n + 1 has the inverse
    w -> (w - m - 1) mod n + 1, so the letters after m name w's only possible
    source.  That source's flat decoration must map to the parity-algorithm
    output of w.  The inverse sends the shard's (n - 1)! words onto all
    (n - 1)! sources, so the shards together check the bijection.  Keying the
    shards by the source instead would leave cells empty: by its first
    letter, shard n - 1 at every n; by its revmaj mod n, one shard at n = 2
    and one at n = 3."""
    m = shard + 1
    for values in _permutations(n, shard):
        source = adr.dyck_decorate(tuple((v - m - 1) % n + 1 for v in values[1:]))
        image = adr.delta(m, source)
        if schedule.revmaj(image) != schedule.revmaj(source) + n - m:
            return f"delta({m}, {source}) revmaj"
        expected = adr.parity_decorate(values)
        if image != expected:
            return f"delta({m}, {source}) is not {expected}"
    return None


def check_recursion(n: int) -> str | None:
    """S(n, k) = [n]_t (D(n-1, k) + D(n-1, k-1)) for n - k odd via the fast
    word-level sums."""
    for k, (fast, recursive) in enumerate(zip(adr.fast_sums(n), adr.recursive_sums(n))):
        if fast != recursive:
            return f"k={k}"
    return None


def check_sum_factorial(n: int) -> str | None:
    """Summing either fast enumerator over all k gives [n]_t!."""
    for stat, kind in (("S", "square"), ("D", "dyck")):
        total = sum(adr.fast_sums(n, kind), poly.TPoly())
        if total != poly.t_factorial(n):
            return f"sum {stat} = {total}"
    return None


def check_euler(n: int) -> str | None:
    """The undecorated signed sums in alternating-permutation polynomials.
    For odd n, S(n, 0) has its closed form; for even n no parity-algorithm
    output is undecorated, so the insertion DP's S(n, 0) vanishes there.
    At every n, D(n, 0) = t^floor(n^2 / 4) euler_t(n): checked, not proved
    (observed on the DP for every n <= 24).  For every k < n, D(n, k) has
    lowest degree floor((n - k)^2 / 4) and top degree C(n, 2) - C(k + 1, 2),
    every coefficient between them positive, and D(n, n - 2)(1) is
    2^(n - 1) - 1: checked, not proved (observed on the DP for every
    n <= 20, the suite's default size)."""
    closed = adr.euler_specialization(n) if n % 2 else poly.TPoly()
    if adr.fast_sums(n)[0] != closed:
        return f"S({n},0) != {closed}"
    dyck = adr.fast_sums(n, "dyck")
    if dyck[0] != poly.TPoly.monomial(n * n // 4) * poly.euler_t(n):
        return f"D({n},0) != t^{n * n // 4} euler_t({n})"
    for k, coeffs in enumerate(d.coeffs for d in dyck):
        low, top = (n - k) ** 2 // 4, math.comb(n, 2) - math.comb(k + 1, 2)
        if len(coeffs) != top + 1 or any(coeffs[:low]) or min(coeffs[low:]) <= 0:
            return f"D({n},{k}) is not positive exactly on degrees {low}..{top}"
    if n >= 2 and dyck[n - 2](1) != 2 ** (n - 1) - 1:
        return f"D({n},{n - 2})(1) != 2^{n - 1} - 1"
    return None


def check_egf(n: int) -> str | None:
    """Both fast sums at t = 1, for every k, equal the rows of an
    exponential generating function of the Dyck sums
    (:func:`~pathlab.adr.t_one_rows`): checked, not proved.  The square
    row is n (D(n-1, k) + D(n-1, k-1)) at t = 1 for odd n - k and zero
    otherwise, the ``recursion`` identity at t = 1.  It needs no walk, so
    it checks every k of the insertion DP at sizes no sweep reaches."""
    rows = adr.t_one_rows(n)
    pairs = itertools.zip_longest(rows[n - 1], (0, *rows[n - 1]), fillvalue=0)
    square = [n * (a + b) if (n - k) % 2 else 0 for k, (a, b) in enumerate(pairs)]
    for stat, kind, row in (("S", "square", square), ("D", "dyck", rows[n])):
        got = (p(1) for p in adr.fast_sums(n, kind))
        for k, (value, expected) in enumerate(itertools.zip_longest(got, row, fillvalue=0)):
            if value != expected:
                return f"{stat}({n},{k})(1) = {value}, the series gives {expected}"
    return None


def check_sdw_area(n: int) -> str | None:
    """area equals revmaj of the diagonal word for every path.  Decorations
    change neither the area, nor the letters of the diagonal word, nor
    revmaj, so the undecorated paths cover every k.  Each step word's area
    comes from its profile, and each labeling's letters from the reading
    that :func:`~pathlab.schedule.diagonal_word` uses
    (:func:`~pathlab.schedule.read_diagonals`); a path is built only to
    name a failure.  The witness is the first failing path in the order of
    :func:`~pathlab.enumeration.step_groups`, step words grouped by column
    composition, which need not be the first in
    :func:`~pathlab.enumeration.generate`'s lexicographic order."""
    for columns, profiles in enumeration.step_groups(n, "square", None):
        for profile in profiles:
            bases = schedule.diagonal_bases(profile.word)
            for labels in zip(*columns):
                letters = schedule.read_diagonals(bases, labels)
                if schedule.revmaj(letters) != profile.area:
                    return str(paths.DecoratedLabeledPath(profile.steps, labels))
    return None


CHECKS: dict[str, tuple[Callable[..., str | None], int]] = {
    # check_id -> (function of n, and of a shard in SHARDED, default max_n)
    "schedule-formula": (check_schedule_formula, 5),
    "interval": (check_interval, 7),
    "cancellation-word": (check_cancellation_word, 8),
    "cancellation-path": (check_cancellation_path, 6),
    "dinv-ladder": (check_dinv_ladder, 6),
    "shape": (check_shape, 6),
    "partition": (check_partition, 5),
    "decorate-unique": (check_decorate_unique, 7),
    "phi-bijection": (check_phi_bijection, 7),
    "delta-bijection": (check_delta_bijection, 7),
    "recursion": (check_recursion, 12),
    "sum-factorial": (check_sum_factorial, 12),
    "euler": (check_euler, 20),
    "egf": (check_egf, 20),
    "sdw-area": (check_sdw_area, 6),
}


# suites whose size n runs as n cells, check(n, shard) for shard in 0..n-1,
# exactly those whose check takes a shard; the others run check(n) as one
# cell per size
SHARDED = frozenset(
    check_id
    for check_id, (check, _) in CHECKS.items()
    if "shard" in check.__code__.co_varnames[: check.__code__.co_argcount]
)


def _run_cell(args: tuple[str, int, int | None]) -> Report:
    check_id, n, shard = args
    check = CHECKS[check_id][0]
    start = time.perf_counter()
    try:
        witness = check(n) if shard is None else check(n, shard)
    except ValueError as exc:  # every pathlab error, e.g. a broken ladder
        witness = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return Report(check_id, {"n": n}, witness is None, witness or "", elapsed)


def _merge(reports: Iterable[Report]) -> Iterator[Report]:
    """One report per size from its cells' reports, which come in order of
    (n, shard): a size passes when every shard passes, its witness is the
    lowest failing shard's, and its time is the sum of the shards' times."""
    for _, group in itertools.groupby(reports, key=lambda r: r.params["n"]):
        shards = list(group)
        failed = [r for r in shards if not r.ok]
        yield shards[0]._replace(
            ok=not failed,
            witness=failed[0].witness if failed else "",
            elapsed=math.fsum(r.elapsed for r in shards),
            shards=len(shards),
        )


def _serve(conn) -> None:
    """A worker: runs each cell that comes down ``conn`` and sends back its
    report, or the exception the cell raised, until ``None`` comes."""
    while (cell := conn.recv()) is not None:
        try:
            conn.send(_run_cell(cell))
        except Exception as exc:
            conn.send(exc)


def _run_pool(cells: list, workers: int) -> dict:
    """Each cell's report, from ``workers`` processes.  Cells go out in the
    given order, each to whichever worker answers first; an exception a
    cell raised is raised here.  Every worker is joined before this
    returns or raises."""
    conns, procs, done = [], [], {}
    try:
        for _ in range(workers):
            conn, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_serve, args=(child,))
            proc.start()
            child.close()
            conns.append(conn)
            procs.append(proc)
        todo = iter(cells)
        busy = {}  # conn -> the cell its worker runs
        for conn, cell in zip(conns, todo):
            conn.send(cell)
            busy[conn] = cell
        while busy:
            for conn in multiprocessing.connection.wait(list(busy)):
                try:
                    report = conn.recv()
                except EOFError:
                    raise RuntimeError(f"the worker running {busy[conn]} exited") from None
                if isinstance(report, Exception):
                    raise report
                done[busy.pop(conn)] = report
                cell = next(todo, None)
                if cell is not None:
                    conn.send(cell)
                    busy[conn] = cell
        return done
    finally:
        for conn in conns:
            try:
                conn.send(None)
            except OSError:  # the worker is gone
                pass
            conn.close()
        for proc in procs:
            proc.join()


def run_suite(
    check_id: str, max_n: int | None = None, jobs: int = 1
) -> Iterator[Report]:
    """Run one named suite for n = 1..max_n as (check, n, shard) cells: one
    after another in this process when ``jobs`` is 1, else on at most
    ``jobs`` worker processes and never more than one per cell.  A worker
    gets the next cell, largest n first, as soon as it answers the last.
    Reports come back one per size, in order of n (from the workers, once
    every cell is done), and are the same for any ``jobs``."""
    if check_id not in CHECKS:
        raise KeyError(f"unknown check {check_id!r}; known: {sorted(CHECKS)}")
    if max_n is None:
        max_n = CHECKS[check_id][1]
    cells = [
        (check_id, n, shard)
        for n in range(1, max_n + 1)
        for shard in (range(n) if check_id in SHARDED else (None,))
    ]
    if jobs <= 1 or len(cells) <= 1:
        yield from _merge(map(_run_cell, cells))
        return
    # the largest sizes go first, so that small cells fill the workers' tails
    order = sorted(cells, key=lambda cell: -cell[1])
    done = _run_pool(order, min(jobs, len(cells)))
    yield from _merge(done[cell] for cell in cells)
