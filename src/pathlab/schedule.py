"""Diagonal words, decorated permutations, and schedule numbers.

Reading the labels of a standard path diagonal by diagonal (lowest diagonal
first, each diagonal in decreasing order, decorations carried along) gives a
decorated permutation, the path's diagonal word.  Together with the path's
shift it forms the shifted diagonal word, which determines the distribution
of dinv over all paths sharing it: each letter contributes an independent
factor counted by its schedule number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import sub
from typing import Iterable, NamedTuple, Sequence

from .paths import DecoratedLabeledPath, NonStandardLabeling, area_word, word_shift
from .poly import QTPoly, q_analog


@dataclass(frozen=True)
class DecoratedPermutation:
    """A permutation of 1..n with the set of its decorated letters.

    The word's :class:`ScheduleTable` and its all-ones shifts are computed
    on first use and kept with the word, so every shift's schedule numbers,
    :func:`ones_shifts`, :func:`u_statistic` and :func:`letter_diagonals`
    read one scan of it.  Equality, hashing, repr and pickles see the two
    fields only."""

    values: tuple[int, ...]
    decorated: frozenset[int] = field(default_factory=frozenset)

    @property
    def n(self) -> int:
        return len(self.values)

    def undecorated_count(self) -> int:
        return self.n - len(self.decorated)

    def __str__(self) -> str:
        return format_perm(self)

    def __getstate__(self) -> dict:
        # the cached properties below are rebuilt on use, never pickled
        return {"values": self.values, "decorated": self.decorated}

    @cached_property
    def _table(self) -> ScheduleTable:
        return _schedule_table(self)

    @cached_property
    def _ones(self) -> frozenset[int]:
        # see ones_shifts
        if not self.values:
            return frozenset((0,))
        table, ones = self._table, (1,) * len(self.values)
        return frozenset(s for s in range(len(table.starts) - 1) if table.row(s) == ones)


@dataclass(frozen=True)
class ShiftedDiagonalWord:
    """A decorated permutation laid out with run i on diagonal i - shift;
    a shift below 0 names no layout and raises ValueError."""

    word: DecoratedPermutation
    shift: int

    def __post_init__(self):
        if self.shift < 0:
            raise ValueError(f"shift must be at least 0, got {self.shift}")


def make_perm(
    values: Iterable[int], decorated: Iterable[int] = ()
) -> DecoratedPermutation:
    """Build a checked decorated permutation of 1..n; the decorated letters
    must be letters of the word."""
    values = tuple(values)
    decorated = frozenset(decorated)
    n = len(values)
    if sorted(values) != list(range(1, n + 1)):
        raise NonStandardLabeling(f"{values} is not a permutation of 1..{n}")
    if not decorated.issubset(values):
        raise ValueError(f"decorated letters {sorted(decorated)} not all in 1..{n}")
    return DecoratedPermutation(values, decorated)


def format_perm(word: DecoratedPermutation) -> str:
    """Render as space-separated letters with ``*`` marking decorations,
    e.g. ``7* 8 4* 2 3 5 6 1``."""
    return " ".join(f"{v}*" if v in word.decorated else str(v) for v in word.values)


_PERM_FORMAT = "space-separated letters, * marking decorations, e.g. 7* 8 4* 2 3 5 6 1"


def parse_perm(text: str) -> DecoratedPermutation:
    """Parse the ``7* 8 4* 2 3 5 6 1`` format."""
    tokens = text.split()
    if not tokens:
        raise ValueError(f"expected a non-empty word of {_PERM_FORMAT}")
    values = []
    decorated = set()
    for token in tokens:
        try:
            letter = int(token.removesuffix("*"))
        except ValueError:
            raise ValueError(f"bad letter {token!r}: expected {_PERM_FORMAT}") from None
        if token.endswith("*"):
            decorated.add(letter)
        values.append(letter)
    return make_perm(values, decorated)


def diagonal_bases(word: Sequence[int]) -> tuple[int, ...]:
    """The sort key of each north step of an area word, less its label:
    step i with label w_i sorts by ``(a_i - min a) * (n + 1) + n - w_i``,
    so one sort of plain ints reads the lowest diagonal first and each
    diagonal in decreasing label order.  A step word fixes the bases for
    all of its labelings; :func:`read_diagonals` adds the labels."""
    m, low = len(word) + 1, min(word, default=0)
    return tuple([(d - low) * m + m - 1 for d in word])


def read_diagonals(bases: Sequence[int], labels: Sequence[int]) -> tuple[int, ...]:
    """The labels, a permutation of 1..n, read diagonal by diagonal: lowest
    diagonal first and decreasing within each, as :func:`diagonal_word`
    reads a path, with the :func:`diagonal_bases` of its area word.  Each
    key leaves n - w mod n + 1, so the sorted keys give back the letters."""
    m = len(labels) + 1
    # a list, not a generator: tuple() of a generator allocates a guessed
    # size and resizes, which raised the peak memory of 15,000 benchmark path
    # queries by 2 MB (CPython 3.11)
    return tuple([m - 1 - key % m for key in sorted(map(sub, bases, labels))])


def diagonal_word(path: DecoratedLabeledPath) -> ShiftedDiagonalWord:
    """Labels read off diagonal by diagonal, lowest first and decreasing
    within each diagonal (:func:`read_diagonals`), the labels of decorated
    steps decorated; paired with the shift.
    """
    labels = path.labels
    n = len(labels)
    if sorted(labels) != list(range(1, n + 1)):
        raise NonStandardLabeling("diagonal words require standard labels 1..n")
    a = area_word(path)
    decorated = frozenset(labels[i - 1] for i in path.decorations)
    return ShiftedDiagonalWord(
        DecoratedPermutation(read_diagonals(diagonal_bases(a), labels), decorated),
        word_shift(a),
    )


def descents(seq: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i in range(1, len(seq)) if seq[i - 1] > seq[i])


def _letters(word: DecoratedPermutation | Sequence[int]) -> tuple[int, ...]:
    """The letters of a decorated permutation, or of a plain sequence."""
    return word.values if isinstance(word, DecoratedPermutation) else tuple(word)


def maj(seq: Sequence[int] | DecoratedPermutation) -> int:
    """Sum of descent positions (1-based)."""
    return sum(descents(_letters(seq)))


def revmaj(seq: Sequence[int] | DecoratedPermutation) -> int:
    """maj of the reversed word; decorations are ignored.  The reversed
    word of length n descends at position n - j exactly where the word
    ascends from position j to j + 1, so one pass over the word sums
    n - j over its ascents."""
    values = _letters(seq)
    n = len(values)
    return sum([n - j for j in range(1, n) if values[j - 1] < values[j]])


def decreasing_runs(word: DecoratedPermutation | Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Maximal decreasing factors, as tuples of letters in word order."""
    runs: list[list[int]] = []
    for v in _letters(word):
        if runs and runs[-1][-1] > v:
            runs[-1].append(v)
        else:
            runs.append([v])
    # a list, not a generator: tuple() of a generator over-allocates and resizes
    return tuple([tuple(r) for r in runs])


def letter_diagonals(sdw: ShiftedDiagonalWord) -> dict[int, int]:
    """Diagonal of each letter: the index of its decreasing run minus the
    shift, the runs read off the word's :class:`ScheduleTable`."""
    values, starts, s = sdw.word.values, sdw.word._table.starts, sdw.shift
    return {v: r - s for r in range(len(starts) - 1) for v in values[starts[r] : starts[r + 1]]}


def is_cyclic_run(values: Sequence[int]) -> bool:
    """True when some cyclic relabeling v -> ((v + m - 1) mod n) + 1 makes the
    factor strictly decreasing, for any alphabet 1..n holding its letters;
    that is, when it has at most one ascent and, if it has one, its last
    letter exceeds its first.  :func:`_is_cyclic_run_by_rotation` is the
    oracle."""
    ascents = sum(1 for a, b in zip(values, values[1:]) if a < b)
    return ascents == 0 or (ascents == 1 and values[-1] > values[0])


def _is_cyclic_run_by_rotation(values: Sequence[int], n: int) -> bool:
    """:func:`is_cyclic_run` by trying all n relabelings."""
    if len(values) <= 1:
        return True
    for m in range(1, n + 1):
        reps = [(v + m - 1) % n + 1 for v in values]
        if all(reps[i] > reps[i + 1] for i in range(len(reps) - 1)):
            return True
    return False


def _check_position(position: int, n: int) -> None:
    if not 1 <= position <= n:
        raise ValueError(f"position {position} is outside 1..{n}")


def lmcr(word: DecoratedPermutation | Sequence[int], j: int) -> tuple[int, ...]:
    """Leftmost maximal cyclic run ending at position j (1-based); a
    position outside 1..n raises ValueError."""
    values = _letters(word)
    return values[lmcr_start(values, j) - 1 : j]


def rmcr(word: DecoratedPermutation | Sequence[int], i: int) -> tuple[int, ...]:
    """Rightmost maximal cyclic run starting at position i (1-based); a
    position outside 1..n raises ValueError."""
    values = _letters(word)
    _check_position(i, len(values))
    j = i
    while j < len(values) and is_cyclic_run(values[i - 1 : j + 1]):
        j += 1
    return values[i - 1 : j]


def lmcr_start(values: Sequence[int], j: int) -> int:
    """1-based start position of the leftmost maximal cyclic run ending at j;
    a position outside 1..n raises ValueError.

    One right-to-left scan from j, keeping the window's first letter and its
    ascent count.  It stops before the letter that would give the window a
    second ascent, or leave it with one ascent and a first letter not below
    ``values[j - 1]``: the first window :func:`is_cyclic_run` rejects, as in
    :func:`_lmcr_start_by_windows`, its oracle.  A scan costs the run's
    length, so the chain of runs that the decorating algorithms walk from
    the right end, each ending where the last one starts, is O(n) a word."""
    _check_position(j, len(values))
    last = first = values[j - 1]
    ascents = 0
    i = j
    while i > 1:
        x = values[i - 2]
        if x < first:
            ascents += 1
        if ascents > 1 or (ascents and x >= last):
            break
        first = x
        i -= 1
    return i


def _lmcr_start_by_windows(values: Sequence[int], j: int) -> int:
    """:func:`lmcr_start` by growing the window one letter at a time and
    testing each window with :func:`is_cyclic_run`, O(L^2) for a run of
    length L."""
    i = j
    while i > 1 and is_cyclic_run(values[i - 2 : j]):
        i -= 1
    return i


def _letter_mask(letters: Iterable[int]) -> int:
    """Distinct letters as one int S, bit c set for letter c.  Then
    #{d in S : d > c} is ``(S >> c + 1).bit_count()`` and #{d in S : d < c}
    is ``(S & (1 << c) - 1).bit_count()``."""
    return sum(1 << c for c in letters)


def _undecorated_runs(word: DecoratedPermutation) -> tuple[list[int], list[int], int]:
    """One scan of the word, a new decreasing run at each ascent: the
    0-based position where each run starts, then n; each run's undecorated
    letters as one :func:`_letter_mask`; and the decorated letters as one
    mask."""
    decorated = _letter_mask(word.decorated)
    free = ~decorated
    starts: list[int] = []
    undec: list[int] = []
    run = prev = 0  # prev is below every letter, so the first letter opens run 0
    for pos, c in enumerate(word.values):
        if c > prev:  # close the open run; the first close is of no run
            undec.append(run & free)
            run = 0
            starts.append(pos)
        prev = c
        run |= 1 << c
    undec.append(run & free)
    del undec[0]
    starts.append(len(word.values))
    return starts, undec, decorated


class ScheduleTable(NamedTuple):
    """The shift-independent schedule values of one decorated permutation.

    With runs r_0, ..., r_l, write ṙ_i for the undecorated letters of r_i.
    A letter c of run r_i can take three schedule values, none of which
    depends on the shift:

    * *low*   #{d in ṙ_i : d < c} + #{d in ṙ_{i+1} : d > c}
    * *zero*  #{d in ṙ_i : d > c} + 1
    * *high*  #{d in ṙ_i : d > c} + #{d in ṙ_{i-1} : d < c}

    A decorated letter takes its low value whatever the shift, so its zero
    and high entries repeat it.  The shift s picks low before run s, zero
    in it and high after it (:meth:`row`).
    """

    starts: tuple[int, ...]  # 0-based start of each run, then n
    low: tuple[int, ...]  # per letter, in word order
    zero: tuple[int, ...]
    high: tuple[int, ...]

    def row(self, s: int) -> tuple[int, ...]:
        """The schedule word at a shift s below the number of runs."""
        a, b = self.starts[s], self.starts[s + 1]
        return self.low[:a] + self.zero[a:b] + self.high[b:]


def _schedule_table(word: DecoratedPermutation) -> ScheduleTable:
    """The word's :class:`ScheduleTable` from one :func:`_undecorated_runs`
    scan.  A run lists its letters in decreasing order, so the letters of
    ṙ_i above c are those before it and the ones below c those after it,
    both counted as the run is read; each neighbour run's count is one
    popcount of its mask."""
    starts, undec, decorated = _undecorated_runs(word)
    undec.append(0)  # nothing after the last run, nor (undec[-1]) before run 0
    values = word.values
    low: list[int] = []
    zero: list[int] = []
    high: list[int] = []
    for i in range(len(starts) - 1):
        above, below = undec[i + 1], undec[i - 1]
        under = undec[i].bit_count()  # of ṙ_i, the letters below c once c is read
        over = 0  # of ṙ_i, the letters before c, so above it
        for c in values[starts[i] : starts[i + 1]]:
            if decorated >> c & 1:
                w = under + (above >> c + 1).bit_count()
                low.append(w)
                zero.append(w)
                high.append(w)
            else:
                under -= 1
                low.append(under + (above >> c + 1).bit_count())
                zero.append(over + 1)
                high.append(over + (below & (1 << c) - 1).bit_count())
                over += 1
    return ScheduleTable(tuple(starts), tuple(low), tuple(zero), tuple(high))


def schedule_numbers(sdw: ShiftedDiagonalWord) -> tuple[int, ...]:
    """Schedule number of each letter, in word order.

    With runs r_0, ..., r_l and shift s, a letter c in run r_i falls in the
    diagonal i - s.  Its schedule is its *zero* value on the zero diagonal,
    its *high* value on a positive one, and its *low* value on a negative
    one or when c is decorated (:class:`ScheduleTable`).  The word's table
    is built on first use and kept, so each shift is three slices of it.
    A shift at or past the number of runs zeroes the whole word.
    """
    table = sdw.word._table
    if sdw.shift >= len(table.starts) - 1:
        return (0,) * len(table.low)
    return table.row(sdw.shift)


def ones_shifts(word: DecoratedPermutation) -> frozenset[int]:
    """Every shift at which the schedule word is all ones: the shifts below
    the number of runs whose :meth:`ScheduleTable.row` is all ones, found
    once per word and kept with it.  The empty word is all ones at shift 0
    only; a nonempty word has no all-ones shift at or past its number of
    runs.  :func:`schedule_numbers_cyclic` and the decoration sweep
    :func:`~pathlab.adr.adr_decorations`, which share nothing with the
    table, are its test oracles."""
    return word._ones


def exactly_one(slices: Iterable[int]) -> int:
    """The bits set in exactly one of the slices.  With bit l of every
    slice standing for one object (a decoration set, a labeling), and one
    slice per letter or step of a low or high set holding the objects in
    which it is undecorated, these are the objects where that schedule
    value is 1.  Two planes, ``one`` (set at least once) and ``many`` (at
    least twice), leave ``one & ~many``."""
    one = many = 0
    for x in slices:
        many |= one & x
        one |= x
    return one & ~many


def schedule_numbers_cyclic(sdw: ShiftedDiagonalWord) -> tuple[int, ...]:
    """Cyclic-run reformulation of the schedule numbers.

    For an undecorated letter in a positive diagonal, the schedule counts the
    other undecorated letters of its leftmost maximal cyclic run; for a
    decorated letter or a negative diagonal it counts the other undecorated
    letters of its rightmost maximal cyclic run.  Zero-diagonal undecorated
    letters keep the direct count.
    """
    word, s = sdw.word, sdw.shift
    runs = decreasing_runs(word)
    if s >= len(runs):
        return (0,) * word.n
    # from its own runs, not the word's ScheduleTable, so the oracle shares nothing
    diag_of = {v: r - s for r, run in enumerate(runs) for v in run}
    decorated = word.decorated
    out = []
    for pos, c in enumerate(word.values, start=1):
        diag = diag_of[c]
        if diag < 0 or c in decorated:
            window = rmcr(word, pos)
            w = sum(1 for d in window if d != c and d not in decorated)
        elif diag == 0:
            w = sum(1 for d in runs[s] if d > c and d not in decorated) + 1
        else:
            window = lmcr(word, pos)
            w = sum(1 for d in window if d != c and d not in decorated)
        out.append(w)
    return tuple(out)


def u_statistic(sdw: ShiftedDiagonalWord) -> int:
    """Number of undecorated letters strictly below the zero diagonal, i.e.
    in the first `shift` runs, which end where the word's
    :class:`ScheduleTable` starts run `shift`."""
    word, starts = sdw.word, sdw.word._table.starts
    below = word.values[: starts[min(sdw.shift, len(starts) - 1)]]
    return len(below) - len(word.decorated.intersection(below))


def schedule_rhs(sdw: ShiftedDiagonalWord) -> QTPoly:
    """Closed form for the (q, t)-enumerator of the fiber of a shifted
    diagonal word: t^revmaj * q^u * product of q-analogs of the schedules."""
    word = sdw.word
    out = QTPoly.monomial(u_statistic(sdw), revmaj(word))
    for w in schedule_numbers(sdw):
        if w != 1:  # [1]_q = 1
            out = out * q_analog(w)
    return out
