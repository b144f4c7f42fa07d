"""Exhaustive generation of decorated labeled paths and brute-force sums.

All enumeration is deterministic: step words in lexicographic order
('E' < 'N'), then label words in lexicographic order, then decoration sets in
lexicographic order of their sorted tuples.  The generators are desk-scale by
design; the signed/weighted sums stream over the generated families without
materializing them.

Every stream is one walk over labeled paths, :func:`_labeled_step_words`,
in two levels.  What a step word fixes for all of its labelings (the area
word, which pairs of north steps can attack, which steps are valleys
whatever the labels) is its profile, derived once per step word by
:func:`_step_profile`.  The labelings of a column composition are listed
once per walk, in a dict that lives as long as the walk.  Per (steps,
labels) pair only label comparisons remain.  The definitional forms in
:mod:`pathlab.paths` (``attack_pairs``, ``contractible_valleys``, ``dinv``)
are the oracle the tests hold the profile to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .paths import (
    DecoratedLabeledPath,
    area,
    area_word,
    dinv,
    word_shift,
)
from .poly import QTPoly, TPoly
from .schedule import LetterTable, ShiftedDiagonalWord, diagonal_word

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


def _composition_labelings(sizes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Permutations of 1..n increasing inside each block of ``sizes``,
    lexicographically."""
    partial = [((), tuple(range(1, sum(sizes) + 1)))]  # (labels so far, unused)
    for size in sizes:
        partial = [
            (head + combo, tuple(v for v in rest if v not in combo))
            for head, rest in partial
            for combo in itertools.combinations(rest, size)
        ]
    return [head for head, _ in partial]


class _StepProfile(NamedTuple):
    """What a step word fixes for every labeling of it.

    North steps are numbered 1..n as in :mod:`pathlab.paths`.  A candidate
    (i, j, lo, hi) is a pair of steps i < j that attacks exactly when
    w_lo < w_hi: a primary candidate (a_j = a_i) has lo, hi = i, j, and a
    secondary one (a_j + 1 = a_i) has lo, hi = j, i.  Candidates are ordered
    by i, then j.
    """

    area: int
    bonus: int  # north steps strictly below the main diagonal
    candidates: tuple[tuple[int, int, int, int], ...]
    valleys: tuple[int, ...]  # contractible whatever the labels
    ties: tuple[int, ...]  # i with a_{i-1} = a_i: contractible iff w_{i-1} < w_i


def _step_profile(steps: str) -> _StepProfile:
    """The label-free part of the area, attack pairs and valleys of a step
    word, with the rules of :func:`pathlab.paths.attack_pairs` and
    :func:`pathlab.paths.contractible_valleys`."""
    a = area_word(DecoratedLabeledPath(steps, ()))
    n = len(a)
    s = word_shift(a)
    candidates = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if a[j - 1] == a[i - 1]:
            candidates.append((i, j, i, j))
        elif a[j - 1] + 1 == a[i - 1]:
            candidates.append((i, j, j, i))
    return _StepProfile(
        area=sum(v + s for v in a),
        bonus=sum(1 for v in a if v < 0),
        candidates=tuple(candidates),
        valleys=((1,) if a[0] <= -1 else ())
        + tuple(i for i in range(2, n + 1) if a[i - 2] > a[i - 1]),
        ties=tuple(i for i in range(2, n + 1) if a[i - 2] == a[i - 1]),
    )


def _attack_pairs(profile: _StepProfile, w: tuple[int, ...]) -> list[tuple[int, int]]:
    """Attack pairs (i, j) of the undecorated path whose step i carries label
    w[i] (w[0] is a placeholder), ordered by i, then j."""
    return [(i, j) for i, j, lo, hi in profile.candidates if w[lo] < w[hi]]


def _valleys(profile: _StepProfile, w: tuple[int, ...]) -> list[int]:
    """Contractible valleys of the path whose step i carries label w[i]
    (w[0] is a placeholder), increasing."""
    return sorted(profile.valleys + tuple(i for i in profile.ties if w[i - 1] < w[i]))


def _labeled_step_words(
    n: int, kind: str, shard: int | None = None
) -> Iterator[tuple[str, _StepProfile, list[tuple[int, ...]]]]:
    """Each step word of size n with its profile and its standard labelings;
    with a shard j, only the step words whose area is j mod n, and only they
    get a profile.  The labelings of a column composition are listed once
    and shared by every step word with that composition; the dict holding
    them goes when the generator does."""
    by_sizes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for steps in step_words(n, kind):
        if shard is not None and area(DecoratedLabeledPath(steps, ())) % n != shard:
            continue
        sizes = column_sizes(steps)
        if sizes not in by_sizes:
            by_sizes[sizes] = _composition_labelings(sizes)
        yield steps, _step_profile(steps), by_sizes[sizes]


def bare_path_count(n: int, kind: str = "square") -> int:
    """How many paths :func:`generate` yields at k = 0: n^n square paths and
    (n + 1)^(n - 1) Dyck paths (the parking functions)."""
    return n**n if kind == "square" else (n + 1) ** (n - 1)


def generate(family: PathFamily) -> Iterator[DecoratedLabeledPath]:
    """Every path in the family, in the canonical deterministic order."""
    for steps, profile, labelings in _labeled_step_words(family.n, family.kind):
        for labels in labelings:
            valleys = _valleys(profile, (0,) + labels)
            for combo in itertools.combinations(valleys, family.k):
                yield DecoratedLabeledPath(steps, labels, frozenset(combo))


@lru_cache(maxsize=None)
def _signed_sums(n: int, kind: str, shard: int | None) -> tuple[TPoly, ...]:
    """For each k, the sum of (-1)^dinv t^area over the size-n family; with
    a shard j, over the paths whose area is j mod n.

    Visits every (steps, labels) pair once.  For a fixed pair, decorating a
    valley i flips the sign by (-1)^(c_i + 1), where c_i counts the attack
    pairs with left index i: those pairs vanish and the decoration itself
    subtracts one from dinv.  Summing the sign over all k-subsets of valleys
    is therefore the degree-k elementary symmetric function of those flips.

    The area, the below-diagonal bonus and the candidate attack pairs come
    from the step word's profile, computed once per step word; each column
    composition's labelings are listed once per call.  Area is constant
    across a step word, so the pairs of one step word add into one vector
    indexed by k.
    """
    acc: list[dict[int, int]] = [dict() for _ in range(n)]
    for _, profile, labelings in _labeled_step_words(n, kind, shard):
        by_k = [0] * n
        for labels in labelings:
            w = (0,) + labels
            counts = [0] * (n + 1)  # attack pairs by left index
            for i, _ in _attack_pairs(profile, w):
                counts[i] += 1
            base_sign = -1 if (sum(counts) + profile.bonus) % 2 else 1
            # elementary symmetric functions of the sign flips, by k
            esym = [base_sign] + [0] * (n - 1)
            top = 0
            for i in _valleys(profile, w):
                flip = 1 if counts[i] % 2 else -1
                top += 1
                for k in range(min(top, n - 1), 0, -1):
                    esym[k] += esym[k - 1] * flip
            for k in range(n):
                by_k[k] += esym[k]
        for k, contrib in enumerate(by_k):
            if contrib:
                acc[k][profile.area] = acc[k].get(profile.area, 0) + contrib
    return tuple(TPoly.from_counts(bucket) for bucket in acc)


def S_brute(n: int, k: int, shard: int | None = None) -> TPoly:
    """Signed t-enumerator of square paths: sum of (-1)^dinv t^area over the
    standard decorated square paths of size n with k decorations.  With a
    shard j in 0..n-1, only its terms t^a with a = j mod n, from those
    paths alone."""
    PathFamily(n, k, "square")
    return _signed_sums(n, "square", shard)[k]


def D_brute(n: int, k: int) -> TPoly:
    """Signed t-enumerator of Dyck paths: sum of (-1)^dinv t^area over the
    standard decorated Dyck paths of size n with k decorations."""
    PathFamily(n, k, "dyck")
    return _signed_sums(n, "dyck", None)[k]


def fibers_by_sdw(family: PathFamily) -> dict[ShiftedDiagonalWord, QTPoly]:
    """Group the family by shifted diagonal word: each realized word's fiber
    as its sum of q^dinv t^area.  A fiber's size is that sum at q = t = 1."""
    acc: dict[ShiftedDiagonalWord, dict] = {}
    for path in generate(family):
        terms = acc.setdefault(diagonal_word(path), {})
        key = (dinv(path), area(path))
        terms[key] = terms.get(key, 0) + 1
    return {sdw: QTPoly(terms) for sdw, terms in acc.items()}


def qt_enumerator(family: PathFamily) -> QTPoly:
    """Unsigned (q, t)-enumerator: sum of q^dinv t^area over the family, the
    sum of its fibers."""
    return sum(fibers_by_sdw(family).values(), QTPoly())


def schedule_one_paths(n: int, shard: int | None = None) -> Iterator[DecoratedLabeledPath]:
    """All standard decorated square paths of size n (any k) whose schedule
    word is all ones; with a shard j in 0..n-1, only those whose area is j
    mod n.

    Area depends on the step word alone and is constant on a cutting cycle,
    so the n shards split the stream by step word and keep each cycle whole;
    each shard keeps the order of the whole stream.

    Such a path has no attack pair between two undecorated steps, so only
    decoration sets touching every attack pair of the bare path need to be
    tried (checked against the naive filter in the tests).  Decorating steps
    changes neither the letters of the diagonal word nor the shift, so each
    labeling whose attack pairs can be covered builds one
    :class:`~pathlab.schedule.LetterTable` of its runs, and a candidate only
    names its decorated letters (the labels of its steps) and asks the
    table whether the bare shift gives all ones.  The bare path's attack
    pairs and valleys come from its step word's profile.  Two facts let the
    stream skip most of that work:

    * Each decreasing run of the diagonal word is one diagonal, so run r is
      diagonal r - shift, and run ``shift`` is diagonal 0.  An area word
      rises only through two north steps of one column, a_{i+1} <= a_i + 1
      with equality only then, and a column's labels increase, so each rise
      from diagonal d to d + 1 puts a smaller label on d under a larger one
      on d + 1.  The path ends east, so a_1 <= a_n and the wrap from step n
      to step 1 never rises.  Every pair of adjacent occupied diagonals
      therefore meets at an ascent, and each diagonal reads as a decreasing
      run.  So the runs are each diagonal's labels, with the diagonals
      grouped once per step word, and no diagonal word is built; the table
      does not need a run's letters in order.
    * At most one undecorated step of an all-ones path lies on diagonal 0.
      An undecorated letter of run ``shift`` has zero value #{larger
      undecorated letters in that run} + 1, so an all-ones word has at most
      one undecorated letter there.  Only contractible valleys take a
      decoration, and a step in neither ``profile.valleys`` nor
      ``profile.ties`` is a valley under no labeling.  So a step word with
      two such steps on diagonal 0 is skipped before its labelings, and a
      labeling with two non-valleys there before its attack pairs.

    A decoration set covers the attack pairs when it meets the bitmask of
    valleys in each pair; sets are tried by size, then lexicographically.
    """
    for steps, profile, labelings in _labeled_step_words(n, "square", shard):
        a = area_word(DecoratedLabeledPath(steps, ()))
        s = word_shift(a)
        diagonals: list[list[int]] = [[] for _ in range(max(a) + s + 1)]
        for i, d in enumerate(a, start=1):
            diagonals[d + s].append(i)
        zero = diagonals[s]
        if sum(1 for i in zero if i not in profile.valleys + profile.ties) > 1:
            continue
        for labels in labelings:
            w = (0,) + labels
            valleys = _valleys(profile, w)
            if sum(1 for i in zero if i not in valleys) > 1:
                continue
            bit = {v: 1 << b for b, v in enumerate(valleys)}
            masks = [bit.get(i, 0) | bit.get(j, 0) for i, j in _attack_pairs(profile, w)]
            if 0 in masks:
                continue
            table = LetterTable([[w[i] for i in diagonal] for diagonal in diagonals])
            for r in range(min(len(valleys), n - 1) + 1):
                for dv in itertools.combinations(valleys, r):
                    cover = sum(bit[i] for i in dv)
                    if all(m & cover for m in masks) and s in table.ones_shifts(w[i] for i in dv):
                        yield DecoratedLabeledPath(steps, labels, frozenset(dv))
