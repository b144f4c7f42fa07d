"""From words back to paths: fibers, canonical reconstruction, and the
cutting-cycle classes of schedule-one paths.

Each decreasing run of a shifted diagonal word names a diagonal (run index
minus shift).  When the schedule word is all ones the fiber holds exactly one
path, reconstructed here directly: decorated letters below the main diagonal
form the opening stretch (diagonal descending, labels ascending), the
undecorated letters climb diagonal by diagonal (labels descending inside a
diagonal), and the remaining decorated letters close the path (diagonal
descending, labels ascending).  The tests hold it to :func:`_fiber_paths`,
which finds a fiber by trying every ordering of the letters.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .cutting import canonical_rep
from .enumeration import schedule_one_paths
from .paths import DecoratedLabeledPath, PathError, validate
from .schedule import (
    DecoratedPermutation,
    ShiftedDiagonalWord,
    diagonal_word,
    letter_diagonals,
    ones_shifts,
)


class ScheduleNotOne(ValueError):
    """The reconstruction needs a shifted diagonal word with all-ones
    schedule word."""


def _steps_from_diagonals(diagonals: list[int]) -> str | None:
    """The step word whose i-th north step starts on ``diagonals[i]``, or
    None when no path has north steps there; the empty path for no steps."""
    if not diagonals:
        return ""
    n = len(diagonals)
    xs = [i - d for i, d in enumerate(diagonals)]  # x of the i-th north step
    if xs[0] < 0 or xs[-1] > n - 1 or any(b < a for a, b in zip(xs, xs[1:])):
        return None
    steps = "".join("E" * (b - a) + "N" for a, b in zip([0] + xs, xs))
    return steps + "E" * (n - xs[-1])


def path_from_sdw(word: DecoratedPermutation, shift: int) -> DecoratedLabeledPath:
    """The unique path whose shifted diagonal word is (word, shift), for
    words with all-ones schedule word at that shift."""
    sdw = ShiftedDiagonalWord(word, shift)
    if shift not in ones_shifts(word):
        raise ScheduleNotOne(f"({word}, {shift}) does not have all-ones schedules")
    diag_of = letter_diagonals(sdw)
    decorated = word.decorated

    def place(v: int) -> tuple[int, int, int]:
        # (stretch, then diagonal and label in that stretch's order)
        d = diag_of[v]
        if v not in decorated:
            return 1, d, -v
        return (0 if d < 0 else 2), -d, v

    labels = tuple(sorted(word.values, key=place))
    decorations = frozenset(i for i, v in enumerate(labels, start=1) if v in decorated)
    steps = _steps_from_diagonals([diag_of[v] for v in labels])
    if steps is None:
        raise ScheduleNotOne(f"({word}, {shift}) admits no path-shaped layout")
    try:
        path = validate(steps, labels, decorations)
    except PathError as exc:
        raise ScheduleNotOne(f"({word}, {shift}) reconstruction invalid: {exc}") from exc
    rebuilt = diagonal_word(path)
    if rebuilt != sdw:
        raise ScheduleNotOne(
            f"reconstruction of ({word}, {shift}) round-tripped to "
            f"({rebuilt.word}, {rebuilt.shift})"
        )
    return path


def _fiber_paths(word: DecoratedPermutation, shift: int) -> tuple[DecoratedLabeledPath, ...]:
    """Every path with the given shifted diagonal word, by trying all
    orderings of the letters as north steps: the O(n!) test oracle for
    :func:`path_from_sdw`."""
    sdw = ShiftedDiagonalWord(word, shift)
    diag_of = letter_diagonals(sdw)
    out = []
    for perm in itertools.permutations(word.values):
        steps = _steps_from_diagonals([diag_of[v] for v in perm])
        if steps is None:
            continue
        decorations = frozenset(i for i, v in enumerate(perm, start=1) if v in word.decorated)
        try:
            path = validate(steps, perm, decorations)
        except PathError:
            continue
        if diagonal_word(path) == sdw:
            out.append(path)
    return tuple(out)


def classes(n: int, shard: int | None = None) -> Counter[DecoratedLabeledPath]:
    """The cutting-cycle classes of schedule-one paths of size n, each named
    by its canonical member and counting its schedule-one members, from one
    pass over ``schedule_one_paths(n, shard)``: with a shard j, only the
    classes whose area is j mod n."""
    return Counter(canonical_rep(path) for path in schedule_one_paths(n, shard))
