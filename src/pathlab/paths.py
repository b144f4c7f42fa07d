"""Decorated labeled square paths and their basic statistics.

A path of size n is a word of n north (N) and n east (E) unit steps from
(0, 0) to (n, n) whose final step is east.  Each north step carries a positive
integer label; labels must strictly increase bottom-to-top inside a column
(consecutive north steps).  A subset of the north steps may be decorated, but
only steps that are contractible valleys admit a decoration.

Conventions used throughout: north steps are numbered 1..n in path order; the
i-th north step occupies the left edge of a lattice square, an east step the
top edge of the square below it; the diagonal of the square with lower-left
corner (x, y) is y - x.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import NamedTuple, Sequence


class PathError(ValueError):
    """Base class for path validation failures."""


class NotAPath(PathError):
    """The step word is not a balanced N/E word ending in an east step."""


class ColumnOrderViolation(PathError):
    """Labels inside a column do not strictly increase bottom-to-top."""


class DecorationNotContractible(PathError):
    """A decoration sits on a step that is not a contractible valley."""


class NonStandardLabeling(PathError):
    """An operation needed labels forming a permutation of 1..n."""


class DecoratedLabeledPath(NamedTuple):
    """Immutable path data: step word, labels and decorated step indices.

    Construction does not validate; use :func:`validate` (or :func:`parse`,
    which validates) to build checked instances.  A named tuple, so that
    construction, hashing and equality run in C; a path equals, and hashes
    as, the plain tuple of its three fields.
    """

    steps: str
    labels: tuple[int, ...]
    decorations: frozenset[int] = frozenset()

    @property
    def n(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return format_path(self)


class AttackPair(NamedTuple):
    i: int
    j: int
    kind: str  # "primary" or "secondary"


def area_word(path: DecoratedLabeledPath) -> tuple[int, ...]:
    """Diagonal y - x of the starting point of each north step, in path order."""
    return steps_area_word(path.steps)


def steps_area_word(steps: str) -> tuple[int, ...]:
    """:func:`area_word` of a bare step word, which needs no labels."""
    x = y = 0
    word = []
    for step in steps:
        if step == "N":
            word.append(y - x)
            y += 1
        else:
            x += 1
    return tuple(word)


def word_shift(word: Sequence[int]) -> int:
    """How far an area word dips below the main diagonal (0 if it never does)."""
    return max(0, -min(word, default=0))


def shift(path: DecoratedLabeledPath) -> int:
    """How far the path dips below the main diagonal (0 for Dyck paths)."""
    return word_shift(area_word(path))


def area(path: DecoratedLabeledPath) -> int:
    """Sum of the shifted area word; counts whole squares above the path's
    lowest diagonal and below the path."""
    return word_area(area_word(path))


def word_area(word: Sequence[int]) -> int:
    """:func:`area` of the path with this area word."""
    s = word_shift(word)
    return sum(a + s for a in word)


def contractible_valleys(path: DecoratedLabeledPath) -> frozenset[int]:
    """North steps that can be pushed one square left without leaving the grid
    or breaking the labeling.

    Step i > 1 qualifies when it starts strictly below the previous north step
    (a_{i-1} > a_i) or level with it but carrying a larger label; step 1
    qualifies when it starts strictly below the main diagonal.
    """
    a = area_word(path)
    w = path.labels
    out = set()
    for i in range(1, len(w) + 1):
        if i == 1:
            if a[0] <= -1:
                out.add(1)
        elif a[i - 2] > a[i - 1] or (a[i - 2] == a[i - 1] and w[i - 2] < w[i - 1]):
            out.add(i)
    return frozenset(out)


def attack_pairs(path: DecoratedLabeledPath) -> frozenset[AttackPair]:
    """Ordered pairs of north steps contributing to dinv.

    For i < j with i undecorated: a primary pair has equal starting diagonals
    and increasing labels; a secondary pair has step i one diagonal above step
    j and decreasing labels.  This listing is the oracle for :func:`dinv`,
    which counts the same pairs without building them.
    """
    a = area_word(path)
    w = path.labels
    dv = path.decorations
    out = []
    for i in range(1, len(w) + 1):
        if i in dv:
            continue
        for j in range(i + 1, len(w) + 1):
            if a[i - 1] == a[j - 1] and w[i - 1] < w[j - 1]:
                out.append(AttackPair(i, j, "primary"))
            elif a[i - 1] == a[j - 1] + 1 and w[i - 1] > w[j - 1]:
                out.append(AttackPair(i, j, "secondary"))
    return frozenset(out)


def dinv(path: DecoratedLabeledPath) -> int:
    """Attack pairs, plus a bonus for each north step strictly below the main
    diagonal, minus the number of decorations.

    The pairs are counted, not listed (:func:`attack_pairs` lists them and
    is the oracle), in one pass over the step word that builds no area
    word.  Each diagonal keeps the labels of the undecorated north steps
    met on it so far, sorted; labels may repeat across columns, and each
    copy counts.  North step j on diagonal d then closes a primary pair
    with each earlier label below w_j on d, and a secondary one with each
    earlier label above w_j on d + 1."""
    labels, decorations = path.labels, path.decorations
    n = len(labels)
    # earlier[n + d]: the sorted labels met so far on diagonal d, -n <= d <= n
    earlier: list[list[int] | None] = [None] * (2 * n + 2)
    count = j = 0
    at = n  # n + the diagonal the next step starts on
    for step in path.steps:
        if step == "E":
            at -= 1
            continue
        w = labels[j]
        j += 1
        here, above = earlier[at], earlier[at + 1]
        if here:
            count += bisect_left(here, w)
        if above:
            count += len(above) - bisect_right(above, w)
        if at < n:
            count += 1
        if j not in decorations:
            if here is None:
                earlier[at] = [w]
            else:
                insort(here, w)
        at += 1
    return count - len(decorations)


def is_dyck(path: DecoratedLabeledPath) -> bool:
    """True when the path never goes below the main diagonal."""
    word = area_word(path)
    return all(a >= 0 for a in word)


def validate(
    steps: str,
    labels: tuple[int, ...] | list[int],
    decorations: frozenset[int] | set[int] | tuple[int, ...] = (),
) -> DecoratedLabeledPath:
    """Build a checked path, raising a :class:`PathError` subclass on failure."""
    labels = tuple(labels)
    decorations = frozenset(decorations)
    n = len(labels)
    if set(steps) - {"N", "E"}:
        raise NotAPath(f"steps must be over the alphabet N/E, got {steps!r}")
    if steps.count("N") != n or steps.count("E") != n:
        raise NotAPath(
            f"need {n} north and {n} east steps to match {n} labels, got {steps!r}"
        )
    if n and not steps.endswith("E"):
        raise NotAPath("the final step must be east")
    if any(w < 1 for w in labels):
        raise NotAPath("labels must be positive integers")
    path = DecoratedLabeledPath(steps, labels, decorations)
    # labels inside one column belong to consecutive north steps
    idx = 0
    prev_was_north = False
    for step in steps:
        if step == "N":
            if prev_was_north and labels[idx - 1] >= labels[idx]:
                raise ColumnOrderViolation(
                    f"labels {labels[idx - 1]}, {labels[idx]} share a column "
                    "but do not increase bottom-to-top"
                )
            idx += 1
            prev_was_north = True
        else:
            prev_was_north = False
    bad = decorations - contractible_valleys(path)
    if bad:
        raise DecorationNotContractible(
            f"steps {sorted(bad)} are decorated but not contractible valleys"
        )
    return path


def format_path(path: DecoratedLabeledPath) -> str:
    """Render as ``<steps>:<labels>:<decorations>``, e.g. ``NNEENE:1,2,3:3``."""
    labels = ",".join(str(w) for w in path.labels)
    decs = ",".join(str(i) for i in sorted(path.decorations))
    return f"{path.steps}:{labels}:{decs}"


def parse_path(text: str) -> DecoratedLabeledPath:
    """Parse and validate the ``<steps>:<labels>:<decorations>`` format."""
    parts = text.strip().split(":")
    if len(parts) != 3 or not parts[0]:
        raise NotAPath(
            "expected a non-empty <steps>:<labels>:<decorations>, e.g. NNEENE:1,2,3:3"
        )
    steps, label_part, dec_part = parts
    try:
        labels = tuple(int(w) for w in label_part.split(",")) if label_part else ()
        decorations = (
            frozenset(int(i) for i in dec_part.split(",")) if dec_part else frozenset()
        )
    except ValueError as exc:
        raise NotAPath(f"malformed numeric field in {text!r}") from exc
    return validate(steps, labels, decorations)

