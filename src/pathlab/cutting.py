"""Cut-and-paste moves on paths, cutting cycles, and the dinv ladder.

The i-th cut swaps the prefix ending at the i-th east step with the remaining
suffix.  Labels and decorations travel with their north steps; the move is
only admitted when every decoration still sits on a contractible valley.  The
set of admitted images of a path, the path's cutting cycle, shares one
diagonal word and one area; for cycles containing a path with all-ones
schedule word the members' dinv values ladder from 0 to cycle size minus one.

Both facts come from one rotation.  With m north steps before the i-th cut,
the image lists the original's north steps as m + 1, ..., n, 1, ..., m, and
its area word is the original's rotated by m, plus the constant i - m.  Only
the image's first north step can stop being a valley, so a cut is refused
just when that step is decorated and starts on the main diagonal
(:func:`psi`, :func:`cutting_cycle`).  The raise by i - m leaves attack pairs
alone, and the rotation changes the order of a pair of steps p < q just
when p <= m < q.  So one pass over the pairs of the path's area word fills
a difference array, indexed by m, of how each pair's attack changes when q
comes first, and one running sum over it scores a whole cycle
(:func:`cycle_dinvs`), which :func:`ordered_cycle` sorts into the ladder.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Iterator

from .paths import DecoratedLabeledPath, area_word
from .schedule import diagonal_word, ones_shifts


class CycleError(ValueError):
    """A structural guarantee of a cutting cycle failed to hold."""


class LadderViolation(CycleError):
    """The dinv values of a cycle are not 0, 1, ..., size - 1."""


class ShapeViolation(CycleError):
    """A path does not decompose into the three stretches expected of a path
    with all-ones schedule word."""


@dataclass(frozen=True)
class CuttingCycle:
    """The admitted cut-and-paste images of a path: one class of the
    partition of a path family, the same set whichever member it is built
    from (the ``partition`` verify suite checks this)."""

    members: frozenset[DecoratedLabeledPath]


def _positions(steps: str, step: str) -> list[int]:
    """0-based positions of every ``step`` ("N" or "E") in a step word."""
    return [pos for pos, s in enumerate(steps) if s == step]


def _cut(path: DecoratedLabeledPath, i: int, cut: int) -> DecoratedLabeledPath | None:
    """The i-th cut of a valid path, which ends at word position ``cut``.
    Returns the image, or None when a decoration lands off a contractible
    valley.

    With m = cut - i north steps before the cut, the image lists the
    original's north steps as m + 1, ..., n, 1, ..., m.  Every step but the
    first keeps the north step before it and the east steps between them,
    so it keeps its valley.  (Step 1 now follows step n across east steps
    alone: the original's last one, and its first one, which a decorated
    step 1 starts after.)  Only the image's first step can lose it: when
    the image starts with a north step, that step is original step m + 1,
    and it starts on the main diagonal.  Both pieces end in an east step, so
    the image keeps the original's columns, labels, step counts and final
    east step.
    """
    m = cut - i
    steps, labels = path.steps, path.labels
    if cut < len(steps) and steps[cut] == "N" and m + 1 in path.decorations:
        return None
    n = len(labels)
    return DecoratedLabeledPath(
        steps[cut:] + steps[:cut],
        labels[m:] + labels[:m],
        frozenset([(j - m - 1) % n + 1 for j in path.decorations]),
    )


def psi(path: DecoratedLabeledPath, i: int) -> DecoratedLabeledPath | None:
    """Cut after the i-th east step and swap the two pieces.

    Returns the resulting path, or None when a decoration lands off a
    contractible valley.  The path must be valid; see :func:`_cut`.
    """
    n = path.n
    if not 1 <= i <= n:
        raise ValueError(f"cut position must be in 1..{n}, got {i}")
    return _cut(path, i, _positions(path.steps, "E")[i - 1] + 1)


def _admitted_cuts(path: DecoratedLabeledPath) -> Iterator[tuple[int, int, DecoratedLabeledPath]]:
    """Each admitted cut of the path, in order of its east step: the east
    step's ordinal i, the m north steps before the cut, and the image."""
    for i, pos in enumerate(_positions(path.steps, "E"), start=1):
        image = _cut(path, i, pos + 1)
        if image is not None:
            yield i, pos + 1 - i, image


def cutting_cycle(path: DecoratedLabeledPath) -> CuttingCycle:
    """All admitted cut-and-paste images of the path, the path included via
    the full cut: ``path.n`` cuts.  The member a path breaks to is
    :func:`canonical_rep`."""
    return CuttingCycle(frozenset(image for _, _, image in _admitted_cuts(path)))


def cycle_dinvs(path: DecoratedLabeledPath) -> dict[DecoratedLabeledPath, int]:
    """Every member of the path's cutting cycle, with its dinv, from one
    pass over the path's pairs of north steps.

    A member cut at the i-th east step, with m north steps before its cut,
    lists the original steps as m + 1, ..., n, 1, ..., m on the path's area
    word rotated by m and raised by i - m, and the raise leaves attack pairs
    alone.  For steps p < q with |a_p - a_q| <= 1, let f be 1 when they
    attack with p first and g when they attack with q first (the first step
    undecorated, the rules of :func:`~pathlab.paths.attack_pairs`).  q comes
    first in the member just when p <= m < q, so its attack count is the
    sum of f plus the sum of g - f over those pairs: the running sum at m
    of a difference array that adds g - f at p and takes it off at q.  Its
    dinv adds the steps with a_j < m - i, which the raise takes below the
    main diagonal, and takes off the k decorations."""
    a, labels, decorations = area_word(path), path.labels, path.decorations
    n = len(labels)
    free = [j not in decorations for j in range(1, n + 1)]
    # 0-based steps p < q: the pair's g - f counts for m in p + 1..q, and
    # diff[0] holds the sum of f, so attacks[m] is the sum of diff[:m + 1]
    diff = [0] * (n + 1)
    later: dict[int, list[int]] = {}  # diagonal -> 0-based steps after p
    for p in range(n - 1, -1, -1):
        ap, wp, p_free = a[p], labels[p], free[p]
        for q in later.get(ap, ()):  # same diagonal: the smaller label first
            f = p_free and wp < labels[q]
            g = free[q] and labels[q] < wp
            if f or g:
                diff[0] += f
                diff[p + 1] += g - f
                diff[q + 1] -= g - f
        if p_free:
            for q in later.get(ap - 1, ()):  # q one diagonal lower: only f
                if wp > labels[q]:
                    diff[0] += 1
                    diff[p + 1] -= 1
                    diff[q + 1] += 1
        for q in later.get(ap + 1, ()):  # q one diagonal higher: only g
            if free[q] and labels[q] > wp:
                diff[p + 1] += 1
                diff[q + 1] -= 1
        later.setdefault(ap, []).append(p)
    attacks = list(accumulate(diff))
    low, k = sorted(a), len(decorations)
    return {
        image: attacks[m] + bisect_left(low, m - i) - k for i, m, image in _admitted_cuts(path)
    }


def breaking_step(path: DecoratedLabeledPath) -> int:
    """East-step ordinal whose cut produces the canonical representative,
    which has dinv 0 when the path's schedule word is all ones.

    The breaking point is the start of the leftmost undecorated north step on
    the bottom diagonal if one exists, else the start of the leftmost
    decorated north step there.  The cut happens one step earlier in the
    first case and two steps earlier in the second, cyclically; a wrap lands
    on the final east step, i.e. the identity cut.
    """
    a = area_word(path)
    bottom = min(a)
    undecorated = [
        i for i, d in enumerate(a, start=1) if d == bottom and i not in path.decorations
    ]
    if undecorated:
        target, back = undecorated[0], 1
    else:
        decorated = [i for i, d in enumerate(a, start=1) if d == bottom]
        target, back = decorated[0], 2
    word_pos = _positions(path.steps, "N")[target - 1]  # 0-based
    cut_pos = (word_pos - back) % len(path.steps) + 1
    if path.steps[cut_pos - 1] != "E":
        raise CycleError(
            f"breaking step landed on a north step of {path} at {cut_pos}"
        )
    return path.steps[:cut_pos].count("E")


def canonical_rep(path: DecoratedLabeledPath) -> DecoratedLabeledPath:
    """The cycle member produced by cutting at the breaking step.

    It has dinv 0 when the path's schedule word is all ones (the
    ``dinv-ladder`` verify suite checks this); otherwise its dinv can be
    positive, and other members of the same cycle can break elsewhere."""
    image = psi(path, breaking_step(path))
    if image is None:
        raise CycleError(f"cut at the breaking step of {path} is not admitted")
    return image


def geometric_order(path: DecoratedLabeledPath) -> tuple[int, ...]:
    """East-step ordinals of a zero-dinv representative, in ladder order.

    East steps immediately followed by a decorated north step are skipped;
    the rest are sorted by the diagonal of the square they close, lowest
    first, ties broken right to left.  Cutting at the i-th listed step yields
    the member with dinv i (the first listed step is the final east step,
    whose cut is the identity).
    """
    x = y = 0
    east_seen = 0
    entries = []
    steps = path.steps
    for pos, step in enumerate(steps):
        if step == "N":
            y += 1
            continue
        east_seen += 1
        follower_decorated = False
        if pos + 1 < len(steps) and steps[pos + 1] == "N":
            follower = pos + 2 - east_seen  # north steps so far, plus one
            follower_decorated = follower in path.decorations
        if not follower_decorated:
            entries.append((y - 1 - x, -x, east_seen))
        x += 1
    entries.sort()
    return tuple(e for _, _, e in entries)


def ordered_cycle(path: DecoratedLabeledPath) -> tuple[DecoratedLabeledPath, ...]:
    """The path's cycle members sorted by dinv, checked to ladder from 0
    upward; the dinv values come from :func:`cycle_dinvs`, so one pass over
    the path's pairs of north steps scores the whole cycle.

    Raises :class:`LadderViolation` when the dinv values are not exactly
    0, 1, ..., size - 1 (they always are for cycles of paths whose schedule
    word is all ones), ties included: the sort compares dinv values only,
    never the paths."""
    # sorting the (member, dinv) items, not the keys by lookup, hashes each
    # member only once, when cycle_dinvs stores it
    ranked = sorted(cycle_dinvs(path).items(), key=itemgetter(1))
    values = [d for _, d in ranked]
    if values != list(range(len(ranked))):
        raise LadderViolation(f"cycle of {ranked[0][0]} has dinv values {values}")
    return tuple([q for q, _ in ranked])


def sched_one_members(members: Iterable[DecoratedLabeledPath]) -> frozenset[DecoratedLabeledPath]:
    """The given members whose schedule word is all ones."""
    return frozenset(
        q for q in members if (sdw := diagonal_word(q)).shift in ones_shifts(sdw.word)
    )


@dataclass(frozen=True)
class Stretches:
    """Step-word decomposition of a path with all-ones schedule word."""

    head: str  # decorated valleys below the main diagonal
    body: str  # the undecorated climb, no two consecutive east steps
    tail: str  # decorated valleys on or above the main diagonal


def shape_stretches(path: DecoratedLabeledPath) -> Stretches:
    """Split the step word into the three stretches of a schedule-one path:
    decorated valleys in negative diagonals, then the undecorated north steps
    (each east step inside followed by a north step), then decorated valleys
    in nonnegative diagonals.  Raises :class:`ShapeViolation` otherwise."""
    a = area_word(path)
    n = path.n
    undecorated = [i for i in range(1, n + 1) if i not in path.decorations]
    if not undecorated:
        raise ShapeViolation(f"{path}: no undecorated north step")
    first_u, last_u = undecorated[0], undecorated[-1]
    norths = _positions(path.steps, "N")
    body_start = norths[first_u - 1]
    after_last = norths[last_u - 1] + 1
    if after_last >= len(path.steps) or path.steps[after_last] != "E":
        raise ShapeViolation(f"{path}: last undecorated north step not followed by east")
    body_end = after_last + 1
    head, body, tail = (
        path.steps[:body_start],
        path.steps[body_start:body_end],
        path.steps[body_end:],
    )
    if any(first_u <= i <= last_u for i in path.decorations):
        raise ShapeViolation(f"{path}: decorated step inside the middle stretch")
    if any(a[i - 1] >= 0 for i in path.decorations if i < first_u):
        raise ShapeViolation(f"{path}: head decoration on a nonnegative diagonal")
    if any(a[i - 1] < 0 for i in path.decorations if i > last_u):
        raise ShapeViolation(f"{path}: tail decoration on a negative diagonal")
    if "EE" in body:
        raise ShapeViolation(f"{path}: two consecutive east steps inside the middle stretch")
    return Stretches(head, body, tail)
