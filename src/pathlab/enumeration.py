"""Exhaustive generation of decorated labeled paths and brute-force sums.

All enumeration is deterministic: step words in lexicographic order
('E' < 'N'), then label words in lexicographic order, then decoration sets in
lexicographic order of their sorted tuples.  The generators are desk-scale by
design; the signed/weighted sums stream over the generated families without
materializing them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .paths import (
    DecoratedLabeledPath,
    area,
    area_word,
    attack_pairs,
    contractible_valleys,
    dinv,
    word_shift,
)
from .poly import QTPoly, TPoly
from .schedule import diagonal_word, schedule_numbers

KINDS = ("square", "dyck")


@dataclass(frozen=True)
class PathFamily:
    """The standard paths of size n with k decorations, square or Dyck."""

    n: int
    k: int
    kind: str = "square"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.k < self.n:
            raise ValueError("k must satisfy 0 <= k <= n - 1")


def step_words(n: int, kind: str = "square") -> Iterator[str]:
    """All step words of size n ending east, lexicographically ('E' < 'N');
    Dyck words additionally never fall below the main diagonal."""
    dyck = kind == "dyck"

    def rec(prefix: list[str], norths: int, easts: int):
        if norths == n and easts == n:
            if prefix[-1] == "E":
                yield "".join(prefix)
            return
        if easts < n and (not dyck or easts < norths):
            prefix.append("E")
            yield from rec(prefix, norths, easts + 1)
            prefix.pop()
        if norths < n:
            prefix.append("N")
            yield from rec(prefix, norths + 1, easts)
            prefix.pop()

    yield from rec([], 0, 0)


def column_sizes(steps: str) -> tuple[int, ...]:
    """Sizes of the maximal blocks of consecutive north steps."""
    return tuple(len(block) for block in steps.split("E") if block)


def standard_labelings(steps: str) -> Iterator[tuple[int, ...]]:
    """Permutations of 1..n increasing inside each column, lexicographically."""
    sizes = column_sizes(steps)
    n = sum(sizes)

    def rec(remaining: tuple[int, ...], idx: int) -> Iterator[tuple[int, ...]]:
        if idx == len(sizes):
            yield ()
            return
        for combo in itertools.combinations(remaining, sizes[idx]):
            rest = tuple(v for v in remaining if v not in combo)
            for tail in rec(rest, idx + 1):
                yield combo + tail

    yield from rec(tuple(range(1, n + 1)), 0)


def bare_paths(n: int, kind: str = "square") -> Iterator[DecoratedLabeledPath]:
    """Every undecorated standard path of size n: step words in order, then
    label words in order."""
    for steps in step_words(n, kind):
        for labels in standard_labelings(steps):
            yield DecoratedLabeledPath(steps, labels)


def generate(family: PathFamily) -> Iterator[DecoratedLabeledPath]:
    """Every path in the family, in the canonical deterministic order."""
    for base in bare_paths(family.n, family.kind):
        valleys = sorted(contractible_valleys(base))
        for combo in itertools.combinations(valleys, family.k):
            yield DecoratedLabeledPath(base.steps, base.labels, frozenset(combo))


@lru_cache(maxsize=None)
def _signed_sums(n: int, kind: str) -> tuple[TPoly, ...]:
    """For each k, the sum of (-1)^dinv t^area over the size-n family.

    Streams over (steps, labels) pairs once.  For a fixed pair, decorating a
    valley i flips the sign by (-1)^(c_i + 1), where c_i counts the attack
    pairs with left index i: those pairs vanish and the decoration itself
    subtracts one from dinv.  Summing the sign over all k-subsets of valleys
    is therefore the degree-k elementary symmetric function of those flips.
    """
    acc: list[dict[int, int]] = [dict() for _ in range(n)]
    for base in bare_paths(n, kind):
        a = area_word(base)
        s = word_shift(a)
        ar = sum(v + s for v in a)
        pairs = attack_pairs(base)
        counts: dict[int, int] = {}  # attack pairs per left index
        for pair in pairs:
            counts[pair.i] = counts.get(pair.i, 0) + 1
        bonus = sum(1 for v in a if v < 0)
        base_sign = -1 if (len(pairs) + bonus) % 2 else 1
        # elementary symmetric functions of the sign flips, by k
        esym = [1] + [0] * (n - 1)
        top = 0
        for i in sorted(contractible_valleys(base)):
            flip = 1 if (counts.get(i, 0) + 1) % 2 == 0 else -1
            top += 1
            for k in range(min(top, n - 1), 0, -1):
                esym[k] += esym[k - 1] * flip
        for k in range(n):
            contrib = base_sign * esym[k]
            if contrib:
                acc[k][ar] = acc[k].get(ar, 0) + contrib
    return tuple(TPoly.from_counts(bucket) for bucket in acc)


def S_brute(n: int, k: int) -> TPoly:
    """Signed t-enumerator of square paths: sum of (-1)^dinv t^area over the
    standard decorated square paths of size n with k decorations."""
    PathFamily(n, k, "square")
    return _signed_sums(n, "square")[k]


def D_brute(n: int, k: int) -> TPoly:
    """Signed t-enumerator of Dyck paths: sum of (-1)^dinv t^area over the
    standard decorated Dyck paths of size n with k decorations."""
    PathFamily(n, k, "dyck")
    return _signed_sums(n, "dyck")[k]


def qt_enumerator(family: PathFamily) -> QTPoly:
    """Unsigned (q, t)-enumerator: sum of q^dinv t^area over the family."""
    acc: dict[tuple[int, int], int] = {}
    for path in generate(family):
        key = (dinv(path), area(path))
        acc[key] = acc.get(key, 0) + 1
    return QTPoly(acc)


def fibers_by_sdw(family: PathFamily) -> dict:
    """Group the family by shifted diagonal word; values are (count, QTPoly)."""
    out: dict = {}
    for path in generate(family):
        sdw = diagonal_word(path)
        count, acc = out.get(sdw, (0, {}))
        key = (dinv(path), area(path))
        acc[key] = acc.get(key, 0) + 1
        out[sdw] = (count + 1, acc)
    return {sdw: (count, QTPoly(acc)) for sdw, (count, acc) in out.items()}


def schedule_one_paths(n: int) -> Iterator[DecoratedLabeledPath]:
    """All standard decorated square paths of size n (any k) whose schedule
    word is all ones.

    Such a path has no attack pair between two undecorated steps, so only
    decoration sets touching every attack pair of the bare path need to be
    tried (checked against the naive filter in the tests); each surviving
    candidate still gets its schedule word computed and checked.
    """
    ones = (1,) * n
    for base in bare_paths(n):
        valleys = contractible_valleys(base)
        pairs = [(p.i, p.j) for p in attack_pairs(base)]
        if any(i not in valleys and j not in valleys for i, j in pairs):
            continue
        for r in range(min(len(valleys), n - 1) + 1):
            for dv in itertools.combinations(sorted(valleys), r):
                cover = set(dv)
                if any(i not in cover and j not in cover for i, j in pairs):
                    continue
                path = DecoratedLabeledPath(base.steps, base.labels, frozenset(dv))
                if schedule_numbers(diagonal_word(path)) == ones:
                    yield path
