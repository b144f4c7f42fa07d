"""Exhaustive generation of decorated labeled paths and brute-force sums.

All enumeration is deterministic.  :func:`generate` gives step words in
lexicographic order ('E' < 'N'), then label words in lexicographic order,
then decoration sets in lexicographic order of their sorted tuples; the
schedule-one stream gives its paths in the order its walk finds them.  The
generators are desk-scale by design; the signed/weighted sums stream over
the generated families without materializing them.

Every stream walks labeled paths in two levels.  What a step word fixes
for all of its labelings (the area and shift, which pairs of north steps
can attack, which steps can be contractible valleys) is its profile, made
once per step word by :func:`_step_profile`; the profile carries the word,
and it is what every walk passes around.  Its decorable steps hold the
valley rule, read once per labeling by :func:`_valleys` and once per
slice of labelings by :func:`_presences`.  What a column composition
gives all of its step words is made once per walk, from its labelings as
byte columns (:func:`_composition_columns`).  :func:`generate` compares
labels per (steps, labels) pair and keeps lexicographic order, so it
keeps each composition's columns until the walk ends and reads the
labelings off them.  Every other walk reads :func:`step_groups`, the
profiles grouped by composition with the composition's columns, built
once when the walk reaches the group.  The signed sums and the
schedule-one stream score every labeling of a step word at once, with a
few big-int operations per decoration set, on bit slices packed from
those columns (:func:`_label_slices`), so they hold one composition's
slices at a time, and both walk the sets of decorable steps present on
their :func:`_presences` with :func:`_decoration_sets`.  The stream names
the paths it yields from the group's columns, and yields each one where
its walk finds it.

The fibers by shifted diagonal word, and the (q, t)-enumerator summed
from them, read each labeling of a step word once, off the byte columns
of :func:`step_groups`, for every k: its attack pairs per left
index, its diagonal word by one integer sort
(:func:`~pathlab.schedule.read_diagonals`), and the dinv of each
decoration set from the pairs (:func:`_fiber_counts`).  They build no
path; :func:`_fibers_by_paths`, which groups the paths of
:func:`generate`, is their test oracle.  The definitional forms in
:mod:`pathlab.paths` (``attack_pairs``, ``contractible_valleys``, ``dinv``)
are the oracle the tests hold the profile to.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .paths import (
    DecoratedLabeledPath,
    area,
    dinv,
    steps_area_word,
    word_area,
    word_shift,
)
from .poly import QTPoly, TPoly
from .schedule import (
    DecoratedPermutation,
    ShiftedDiagonalWord,
    diagonal_bases,
    diagonal_word,
    exactly_one,
    read_diagonals,
)

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
    Dyck words additionally never fall below the main diagonal.

    A word is fixed by the positions of its first n - 1 east steps, since
    its last step is east, and lexicographic order of the position tuples is
    the words' order: where two tuples first differ, the smaller one puts an
    east step where the other puts a north step.  So the tuples of
    :func:`itertools.combinations` of 0..2n - 2 come in the words' order.
    A Dyck word has i + 1 north steps before its east step i (0-based), so
    it is a tuple with e_i >= 2i + 1.  There is no word for n < 1."""
    if n < 1:
        return
    for easts in itertools.combinations(range(2 * n - 1), n - 1):
        if kind == "dyck" and not all(map(operator.ge, easts, range(1, 2 * n, 2))):
            continue
        steps = ["N"] * (2 * n - 1) + ["E"]
        for pos in easts:
            steps[pos] = "E"
        yield "".join(steps)


def column_sizes(steps: str) -> tuple[int, ...]:
    """Sizes of the maximal blocks of consecutive north steps."""
    return tuple(len(block) for block in steps.split("E") if block)


def check_sum_size(n: int) -> None:
    """Raise ValueError past n = 15, where a label stops fitting the four
    bits :func:`_label_slices` gives it."""
    if n > 15:
        raise ValueError(f"brute-force walks go up to n = 15, got n = {n}")


def _composition_columns(sizes: tuple[int, ...]) -> list[bytes]:
    """The permutations of 1..n increasing inside each block of ``sizes``,
    lexicographically, as columns: byte l of column x - 1 is w_x of the l-th
    permutation, which ``zip(*columns)`` reads as tuples.  Callers check n
    first (:func:`check_sum_size`).

    The lexicographic list runs over the first block's label sets in order,
    each followed by the rest's list relabeled order-preservingly onto the
    labels left over; each relabeling is one byte translation per column."""
    n = sum(sizes)
    if len(sizes) <= 1:
        return [bytes([v]) for v in range(1, n + 1)]
    tail = _composition_columns(sizes[1:])
    m = len(tail[0])
    parts: list[list[bytes]] = [[] for _ in range(n)]
    for head in itertools.combinations(range(1, n + 1), sizes[0]):
        left = bytes(v for v in range(n + 1) if v not in head)  # left[v]: v-th label left
        relabel = left.ljust(256, b"\0")
        for x, v in enumerate(head):
            parts[x].append(bytes([v]) * m)
        for x, column in enumerate(tail, start=len(head)):
            parts[x].append(column.translate(relabel))
    # each column's pieces go once joined, so the pieces and columns never all coexist
    return [b"".join(parts.pop(0)) for _ in range(n)]


# the byte 16a + b read as "1" when a < b and as "0" otherwise
_LESS = bytes(b"01"[v >> 4 < v & 15] for v in range(256))


def _label_slices(columns: list[bytes]) -> tuple[int, dict[tuple[int, int], int]]:
    """The labelings of a column composition, given as its byte columns
    (:func:`_composition_columns`), as bit slices: with labeling l the l-th
    of the columns, ``full`` has bits 0..m-1 set, and for north steps
    x < y, ``less[x, y]`` has bit l set when labeling l has w_x < w_y.

    Each column becomes an int with labeling l in byte l; shifting w_x four
    bits up puts the byte 16 w_x + w_y at every labeling, which a
    translation reads as one binary digit.  Labels must fit four bits, so n
    is at most 15 (a brute sum at n = 15 has 15^15 (steps, labels) pairs);
    the walks reach it through :func:`step_groups`, which checks that
    first (:func:`check_sum_size`).

    The list is emptied, one column at a time as it is packed, so a caller
    that holds no other reference to the columns never holds a column and
    its packed int together; a caller that reads the columns afterwards
    passes a copy."""
    n = len(columns)
    m = len(columns[0])
    packed = [int.from_bytes(columns.pop(0), "little") for _ in range(n)]
    less = {}
    for x in range(1, n + 1):
        # row x is the last to read column x, so it goes before row x + 1
        high = packed.pop(0) << 4
        for y, low in enumerate(packed, start=x + 1):
            less[x, y] = int((high | low).to_bytes(m, "big").translate(_LESS), 2)
    return (1 << m) - 1, less


class _StepProfile(NamedTuple):
    """A step word with what it fixes for every labeling of it.

    North steps are numbered 1..n as in :mod:`pathlab.paths`.  A candidate
    (i, j, lo, hi) is a pair of steps i < j that attacks exactly when
    w_lo < w_hi: a primary candidate (a_j = a_i) has lo, hi = i, j, and a
    secondary one (a_j + 1 = a_i) has lo, hi = j, i.  Candidates are ordered
    by i, then j.  A decorable step (i, tie) can be a contractible valley:
    one whatever the labels, or, for a tie (a_{i-1} = a_i), exactly when
    w_{i-1} < w_i.  Decorable steps are increasing.
    """

    steps: str
    word: tuple[int, ...]  # the area word
    area: int
    shift: int
    bonus: int  # north steps strictly below the main diagonal
    candidates: tuple[tuple[int, int, int, int], ...]
    decorable: tuple[tuple[int, bool], ...]  # (i, is_tie)


def _step_profile(steps: str) -> _StepProfile:
    """A step word with the label-free part of its area, attack pairs and
    valleys, by the rules of :func:`pathlab.paths.attack_pairs` and
    :func:`pathlab.paths.contractible_valleys`, and its area word and
    shift."""
    a = steps_area_word(steps)
    n = len(a)
    candidates = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if a[j - 1] == a[i - 1]:
            candidates.append((i, j, i, j))
        elif a[j - 1] + 1 == a[i - 1]:
            candidates.append((i, j, j, i))
    falls = enumerate(zip(a, a[1:]), start=2)
    return _StepProfile(
        steps=steps,
        word=a,
        area=word_area(a),
        shift=word_shift(a),
        bonus=sum(1 for v in a if v < 0),
        candidates=tuple(candidates),
        decorable=(((1, False),) if a[0] <= -1 else ())
        + tuple((i, x == y) for i, (x, y) in falls if x >= y),
    )


def _valleys(profile: _StepProfile, labels: tuple[int, ...]) -> list[int]:
    """Contractible valleys of the path whose step i carries label
    ``labels[i - 1]``, increasing."""
    return [i for i, tie in profile.decorable if not tie or labels[i - 2] < labels[i - 1]]


def _presences(
    profile: _StepProfile, full: int, less: dict[tuple[int, int], int]
) -> list[tuple[int, int]]:
    """The decorable steps, increasing, each with the slice of labelings on
    which it is a contractible valley: ``less[i - 1, i]`` for a tie i, and
    ``full`` for any other."""
    return [(i, less[i - 1, i] if tie else full) for i, tie in profile.decorable]


def step_groups(
    n: int, kind: str, shard: int | None
) -> Iterator[tuple[list[bytes], Iterator[_StepProfile]]]:
    """The step words of size n grouped by column composition, each group
    as ``(columns, profiles)``: the byte columns of the composition's
    labelings (:func:`_composition_columns`), which ``zip(*columns)`` reads
    as tuples, built once when the walk reaches the group, and its words'
    :func:`_step_profile` made one at a time.  With a shard j, only the
    words whose area is j mod n, and a shard outside 0..n-1 raises
    ValueError.  The groups come in the order their compositions first
    appear among the step words, and a group's words in lexicographic
    order.  A walk that drops a group's columns, and what it built from
    them, before it asks for the next group holds one composition at a
    time.  The n <= 15 bound of the labelings (:func:`check_sum_size`) is
    checked before the words are grouped, which at n = 16 would list 3*10^8
    of them first."""
    check_sum_size(n)
    if shard is not None and not 0 <= shard < n:
        raise ValueError(f"shard must be in 0..{n - 1}, got {shard}")
    by_sizes: dict[tuple[int, ...], list[str]] = {}
    for steps in step_words(n, kind):
        if shard is None or word_area(steps_area_word(steps)) % n == shard:
            by_sizes.setdefault(column_sizes(steps), []).append(steps)
    for sizes in list(by_sizes):
        yield _composition_columns(sizes), map(_step_profile, by_sizes.pop(sizes))


def _decoration_sets(
    choices: list[tuple[int, int, int]], full: int, flips: int
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """The sets D of choices that some labeling has all of, depth first
    from the empty set, each as ``(D, present, flipped)``.

    A choice is ``(step, slice, flip)``, in increasing order of step.  D is
    the increasing tuple of its members' steps, ``present`` the AND of
    ``full`` and their slices, and ``flipped`` the XOR of ``flips`` and
    their flips.  A set is extended only while ``present`` is nonzero.

    A step word of size n has at most n - 1 decorable steps, so no set
    passes the n - 1 decorations of a family: all n would need a_1 <= -1
    and a weakly decreasing area word, but a path ending east has
    a_n >= 0."""
    stack = [((), 0, full, flips)]  # (D, next choice, present, flipped)
    while stack:
        dec, start, present, flipped = stack.pop()
        yield dec, present, flipped
        for c in range(start, len(choices)):
            step, on, flip = choices[c]
            if both := present & on:
                stack.append((dec + (step,), c + 1, both, flipped ^ flip))


def bare_path_count(n: int, kind: str = "square") -> int:
    """How many paths :func:`generate` yields at k = 0: n^n square paths and
    (n + 1)^(n - 1) Dyck paths (the parking functions)."""
    return n**n if kind == "square" else (n + 1) ** (n - 1)


def _kept_step_words(family: PathFamily) -> Iterator[_StepProfile]:
    """The profiles of the family's step words with at least k decorable
    steps, in lexicographic order: a word with fewer has no path in the
    family."""
    for profile in map(_step_profile, step_words(family.n, family.kind)):
        if len(profile.decorable) >= family.k:
            yield profile


def read_pair_count(family: PathFamily) -> int:
    """How many (steps, labels) pairs :func:`generate` reads for the
    family: the n!/(c_1! c_2! ...) labelings of each step word it keeps,
    c_i its column sizes.  At k = 0 this is :func:`bare_path_count`."""
    return sum(
        math.factorial(family.n) // math.prod(map(math.factorial, column_sizes(profile.steps)))
        for profile in _kept_step_words(family)
    )


def generate(family: PathFamily) -> Iterator[DecoratedLabeledPath]:
    """Every path in the family, in the canonical deterministic order.

    A step word with fewer than k decorable steps has no path in the
    family, so it is passed over before its labelings are read
    (:func:`read_pair_count` counts the pairs read).  A composition's
    labelings can be asked for again at any later step word, so its
    columns are kept until the generator goes: 545,835 labelings of 8
    bytes (4.4 MB) at n = 8.  n is at most 15, as for the brute sums
    (:func:`check_sum_size`)."""
    check_sum_size(family.n)
    columns: dict[tuple[int, ...], list[bytes]] = {}
    for profile in _kept_step_words(family):
        sizes = column_sizes(profile.steps)
        if sizes not in columns:
            columns[sizes] = _composition_columns(sizes)
        for labels in zip(*columns[sizes]):
            for combo in itertools.combinations(_valleys(profile, labels), family.k):
                yield DecoratedLabeledPath(profile.steps, labels, frozenset(combo))


# (n, kind, shard) -> the sums of the last walk, cleared before each walk
# stores its own; a square walk, whole or one shard, fills the Dyck entry of
# the same shard too.  The CLI asks for one stat per process; the Dyck entry
# is read by the cancellation-word suite and by the benchmark's table op (two
# `cli.main` calls in one worker), which ask for S and then D of one n
_SIGNED_SUMS: dict[tuple[int, str, int | None], tuple[TPoly, ...]] = {}


def signed_sums(n: int, kind: str = "square", shard: int | None = None) -> tuple[TPoly, ...]:
    """For each k, the sum of (-1)^dinv t^area over the standard decorated
    paths of size n with k decorations; with a shard j in 0..n-1, over the
    paths whose area is j mod n, and another shard raises ValueError.  n is
    at most 15 (:func:`check_sum_size`).  The last walk's sums stay in
    ``_SIGNED_SUMS``.

    The step words are walked grouped by column composition
    (:func:`step_groups`), each group's byte columns packed into its bit
    slices (:func:`_label_slices`, which empties the column list as it
    packs, so no column outlives its packing), one composition's slices
    held at a time, bit l standing for labeling l.  A Dyck step word is
    exactly a square one with no north step below the diagonal
    (``bonus == 0``), and its labelings are those of its composition, so a
    square walk, over the whole family or one area shard, also adds each
    such word's sums into the Dyck sums of that shard and keeps both; a
    Dyck request walks the Dyck words alone.

    A step word's labelings are scored at once.  A primary candidate (i, j)
    attacks on ``less[i, j]``, a secondary one on its complement, so XOR-ing
    them by left index gives ``odd[i]``, the labelings with an odd count c_i
    of attack pairs at i, and their XOR with the bonus parity gives the
    labelings of negative sign.  A valley or tie is present on its slice of
    :func:`_presences`.

    Decorating a valley i flips the sign by (-1)^(c_i + 1): its c_i attack
    pairs vanish and the decoration itself subtracts one from dinv.  So a
    decoration set D of valleys and ties (:func:`_decoration_sets` from
    ``neg``, with ``odd[i] ^ full`` as the flip of i) is negative on
    ``neg`` XOR-ed with its flips, and adds present minus twice
    negative-and-present labelings to the sum at |D|.
    Area is constant across a step word, so its sums add into one vector
    indexed by k.
    """
    PathFamily(n, 0, kind)
    if (n, kind, shard) in _SIGNED_SUMS:
        return _SIGNED_SUMS[n, kind, shard]
    sums = {kind: [dict() for _ in range(n)]}  # kind -> k -> area -> sum
    if kind == "square":
        sums["dyck"] = [dict() for _ in range(n)]
    for columns, profiles in step_groups(n, kind, shard):
        full, less = _label_slices(columns)
        for profile in profiles:
            odd = [0] * (n + 1)  # by left index: labelings with odd c_i
            for i, j, lo, _ in profile.candidates:
                odd[i] ^= less[i, j] if lo == i else less[i, j] ^ full
            neg = full if profile.bonus % 2 else 0
            for slice_ in odd:
                neg ^= slice_
            choices = [(i, on, odd[i] ^ full) for i, on in _presences(profile, full, less)]
            by_k = [0] * n
            for dec, present, negative in _decoration_sets(choices, full, neg):
                by_k[len(dec)] += present.bit_count() - 2 * (present & negative).bit_count()
            # a square step word with bonus 0 is a Dyck step word
            for acc in sums.values() if profile.bonus == 0 else (sums[kind],):
                for k, contrib in enumerate(by_k):
                    if contrib:
                        acc[k][profile.area] = acc[k].get(profile.area, 0) + contrib
        del full, less  # before the next composition's slices are built
    _SIGNED_SUMS.clear()
    for got, acc in sums.items():
        _SIGNED_SUMS[n, got, shard] = tuple(TPoly.from_counts(bucket) for bucket in acc)
    return _SIGNED_SUMS[n, kind, shard]


def S_brute(n: int, k: int) -> TPoly:
    """``signed_sums(n)[k]``, one k of the square sums; no module of the
    package calls it."""
    PathFamily(n, k)
    return signed_sums(n)[k]


def D_brute(n: int, k: int) -> TPoly:
    """``signed_sums(n, "dyck")[k]``, one k of the Dyck sums; no module of
    the package calls it."""
    PathFamily(n, k, "dyck")
    return signed_sums(n, "dyck")[k]


def _fiber_counts(
    n: int, kind: str, shard: int | None
) -> dict[tuple[tuple[int, ...], int, int, int, int], int]:
    """How many paths of size n (with a shard j, of area j mod n) have each
    ``(letters, decorated, shift, dinv, area)``: their diagonal word's
    letters, its decorated letters as one mask (bit v for letter v), the
    shift, dinv and area.  Every k at once, and no path is built.

    The step words come grouped by column composition with the
    composition's byte columns (:func:`step_groups`).  Each step word fixes
    the area, the shift, the attack candidates and the decorable steps (its
    profile), and the sort keys of the diagonal reading
    (:func:`~pathlab.schedule.diagonal_bases`).  Per labeling, one pass
    over the candidates counts the attack pairs c_i at each left index i,
    P in all, and one sort of packed ints reads the diagonal word
    (:func:`~pathlab.schedule.read_diagonals`).  Decorating a valley i
    takes its c_i pairs and one more off dinv, so the sets D of the
    labeling's :func:`_valleys`, built by doubling, have
    ``dinv = P + bonus - sum over i in D of (c_i + 1)``."""
    counts: dict[tuple[tuple[int, ...], int, int, int, int], int] = {}
    for columns, profiles in step_groups(n, kind, shard):
        for profile in profiles:
            area, shift = profile.area, profile.shift
            bases = diagonal_bases(profile.word)
            pairs = [(i, lo - 1, hi - 1) for i, _, lo, hi in profile.candidates]
            for w in zip(*columns):
                c = [0] * (n + 1)
                for i, lo, hi in pairs:
                    if w[lo] < w[hi]:
                        c[i] += 1
                letters = read_diagonals(bases, w)
                sets = [(0, sum(c) + profile.bonus)]  # (decorated mask, dinv)
                for i in _valleys(profile, w):
                    bit, drop = 1 << w[i - 1], c[i] + 1
                    sets += [(mask | bit, d - drop) for mask, d in sets]
                for mask, d in sets:
                    key = (letters, mask, shift, d, area)
                    counts[key] = counts.get(key, 0) + 1
    return counts


def fibers_by_sdw(
    n: int, kind: str = "square", shard: int | None = None
) -> tuple[dict[ShiftedDiagonalWord, QTPoly], ...]:
    """Group the size-n family of each k by shifted diagonal word: for each
    k, each realized word's fiber as its sum of q^dinv t^area.  With a
    shard j in 0..n-1, only the paths whose area is j mod n; another shard
    raises ValueError.  A fiber's size is its sum at q = t = 1.

    One walk of the step words and their labelings gives every k
    (:func:`_fiber_counts`).  A decorated word is built once for all of its
    shifts, so the schedule table it caches is built once too.
    :func:`_fibers_by_paths`, which groups the paths of :func:`generate`,
    is its test oracle."""
    PathFamily(n, 0, kind)
    grouped: list[dict] = [{} for _ in range(n)]  # k -> (letters, mask, shift) -> terms
    words: dict[tuple[tuple[int, ...], int], DecoratedPermutation] = {}
    for (letters, mask, shift, d, a), count in _fiber_counts(n, kind, shard).items():
        grouped[mask.bit_count()].setdefault((letters, mask, shift), {})[d, a] = count
        if (letters, mask) not in words:
            decorated = frozenset(v for v in letters if mask >> v & 1)
            words[letters, mask] = DecoratedPermutation(letters, decorated)
    return tuple(
        {
            ShiftedDiagonalWord(words[letters, mask], shift): QTPoly(terms)
            for (letters, mask, shift), terms in fibers.items()
        }
        for fibers in grouped
    )


def _fibers_by_paths(family: PathFamily) -> dict[ShiftedDiagonalWord, QTPoly]:
    """The fibers of one family, grouped path by path with
    :func:`~pathlab.schedule.diagonal_word`, :func:`~pathlab.paths.dinv`
    and :func:`~pathlab.paths.area`: the test oracle of
    :func:`fibers_by_sdw`."""
    acc: dict[ShiftedDiagonalWord, dict] = {}
    for path in generate(family):
        terms = acc.setdefault(diagonal_word(path), {})
        key = (dinv(path), area(path))
        terms[key] = terms.get(key, 0) + 1
    return {sdw: QTPoly(terms) for sdw, terms in acc.items()}


def qt_sums(n: int, kind: str = "square") -> tuple[QTPoly, ...]:
    """For each k, the unsigned (q, t)-enumerator: the sum of q^dinv t^area
    over the size-n family with k decorations, the sum of its fibers, every
    k read off one walk of :func:`_fiber_counts`."""
    PathFamily(n, 0, kind)
    terms: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    for (_, mask, _, d, a), count in _fiber_counts(n, kind, None).items():
        by_k = terms[mask.bit_count()]
        by_k[d, a] = by_k.get((d, a), 0) + count
    return tuple(map(QTPoly, terms))


def schedule_one_paths(n: int, shard: int | None = None) -> Iterator[DecoratedLabeledPath]:
    """All standard decorated square paths of size n (any k) whose schedule
    word is all ones; with a shard j in 0..n-1, only those whose area is j
    mod n.  Labels must fit the four bits of :func:`_label_slices`, so n is
    at most 15; a larger n, or another shard, raises ValueError at the
    first ``next``, where :func:`step_groups` checks both.

    Area depends on the step word alone and is constant on a cutting cycle,
    so the n shards split the stream by step word and keep each cycle whole.

    Each decreasing run of the diagonal word is one diagonal, so run r is
    diagonal r - shift, and run ``shift`` is diagonal 0.  An area word rises
    only through two north steps of one column, a_{i+1} <= a_i + 1 with
    equality only then, and a column's labels increase, so each rise from
    diagonal d to d + 1 puts a smaller label on d under a larger one on
    d + 1.  The path ends east, so a_1 <= a_n and the wrap from step n to
    step 1 never rises.  Every pair of adjacent occupied diagonals therefore
    meets at an ascent, and each diagonal reads as a decreasing run.  With
    the runs the diagonals, the schedule word is all ones at the path's
    shift (:func:`~pathlab.schedule.ones_shifts`) exactly when every step
    meets its rule:

    * a decorated step, and an undecorated one below diagonal 0, has exactly
      one undecorated step in its *low* set: the steps of its diagonal with
      a smaller label and those of the next diagonal up with a larger one;
    * an undecorated step above diagonal 0 has exactly one undecorated step
      in its *high* set: the steps of its diagonal with a larger label and
      those of the next diagonal down with a smaller one;
    * diagonal 0 holds at most one undecorated step.

    Decorating steps changes neither the diagonals nor the labels, so every
    labeling of a step word is scored at once on the bit slices of its
    composition, walked as the signed sums walk them (:func:`step_groups`),
    bit l standing for labeling l.  The sets D of valleys and ties come
    from :func:`_decoration_sets`, a set present on the AND of its
    members' :func:`_presences`.  Whether a step lies in another's low or
    high set is one slice, ``less`` or its complement, and "exactly one" is
    :func:`~pathlab.schedule.exactly_one` of the undecorated members'
    slices, as :func:`~pathlab.adr.adr_decorations` scores the decoration
    sets of a permutation.  The third rule reads D alone, so a step word
    with two steps on diagonal 0 that are never valleys has no hit at all.

    Each path is yielded where the walk finds it, so the stream's order is
    the walk's, the same on every run for one (n, shard): the groups of
    :func:`step_groups`, by first appearance of their composition among
    the shard's step words; a group's words lexicographically; a word's
    decoration sets in the depth-first order of :func:`_decoration_sets`;
    and a set's labelings by rank, the order of the group's columns.  The
    slices are packed from a copy of the column list, since the hits are
    named from the columns, and the columns go with the group and its
    slices, so the stream holds one composition at a time and yields its
    first path as soon as the first group has a hit.
    """
    for columns, profiles in step_groups(n, "square", shard):
        full, less = _label_slices(list(columns))
        for profile in profiles:
            a = (None,) + profile.word  # a[i] is step i's diagonal
            zero = [i for i in range(1, n + 1) if a[i] == 0]
            movable = {i for i, _ in profile.decorable}
            if sum(1 for i in zero if i not in movable) > 1:
                continue

            # j is in the low set of i exactly when i is in the high set of j
            low: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
            high: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
            for i, j in itertools.permutations(range(1, n + 1), 2):
                if a[j] - a[i] in (0, 1):
                    # w_j < w_i on i's diagonal, w_i < w_j on the next one up
                    x, y = (j, i) if a[j] == a[i] else (i, j)
                    on = less[x, y] if x < y else less[y, x] ^ full
                    low[i].append((j, on))
                    high[j].append((i, on))
            choices = [(i, on, 0) for i, on in _presences(profile, full, less)]
            for dec, ok, _ in _decoration_sets(choices, full, 0):
                if sum(1 for i in zero if i not in dec) > 1:
                    continue
                for i in range(1, n + 1):
                    if i in dec or a[i] < 0:
                        rule = low[i]
                    elif a[i] > 0:
                        rule = high[i]
                    else:
                        continue
                    ok &= exactly_one([x for j, x in rule if j not in dec])
                    if not ok:
                        break
                while ok:
                    bit = ok & -ok
                    l = bit.bit_length() - 1
                    labels = tuple([c[l] for c in columns])
                    yield DecoratedLabeledPath(profile.steps, labels, frozenset(dec))
                    ok ^= bit
        del full, less, columns  # before the next composition's slices are built
