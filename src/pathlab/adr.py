"""Words with all-ones schedules, decorating algorithms, and fast enumerators.

A decorated permutation is an *ADR* word, or all-ones realizable, when some
shift gives it the all-ones schedule word; the witness records every such
shift, all read off the word's one schedule table
(:func:`pathlab.schedule.ones_shifts`).  :func:`adr_decorations` lists every
ADR decoration of one permutation.  The *flat* ADR words are those
realizable at shift zero.  Two decorating algorithms attach a canonical
decoration set to any plain permutation; a toggle on the first letter
connects the two outputs, and an affine extension step sends flat words of
size n-1 to ADR words of size n.  Together they turn the signed path
enumerators into explicit sums of t^revmaj over words.  An insertion DP
computes those sums in time polynomial in n (n = 20 takes under a
second); decorating all n! permutations, its test oracle, stops near n = 9.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import AbstractSet, Iterator, Sequence

from .enumeration import PathFamily
from .poly import TPoly, t_analog, euler_t
from .schedule import (
    DecoratedPermutation,
    decreasing_runs,
    exactly_one,
    lmcr_start,
    make_perm,
    ones_shifts,
    revmaj,
)


class NotAnADR(ValueError):
    """The word does not admit an all-ones schedule at the required shift."""


@dataclass(frozen=True)
class ADRWitness:
    word: DecoratedPermutation
    valid_shifts: frozenset[int]

    def __bool__(self) -> bool:
        return bool(self.valid_shifts)


def is_adr(word: DecoratedPermutation) -> ADRWitness:
    """The word with every shift whose schedule word is all ones, read off
    the word's cached schedule table by
    :func:`~pathlab.schedule.ones_shifts`.  The empty word is all ones at
    shift 0."""
    return ADRWitness(word, ones_shifts(word))


def adr_decorations(values: Sequence[int]) -> Iterator[ADRWitness]:
    """Every ADR decoration of the permutation, with its witness, by size of
    the decoration set and then as ``itertools.combinations`` takes the
    letters, in word order.  For n <= 8 no permutation has two ADR
    decorations of one size, so only the size orders them there.

    A decorated letter needs low value 1, so a letter whose low set is
    empty is never decorated.  That is the word's last letter and no other:
    any other letter is followed by a smaller letter of its run or by the
    next run's first letter, which is larger.  So only the other n - 1
    letters are decorated, which halves the sets and finds no fully
    decorated nonempty word.

    Their 2^(n-1) sets are scored at once on bit slices, as
    :func:`~pathlab.enumeration.schedule_one_paths` scores the labelings
    of a step word: bit t stands for the set that holds the i-th letter
    exactly when bit i of t is set.  With the low, zero and high values of
    :class:`~pathlab.schedule.ScheduleTable`, a letter's low or high value
    is 1 on :func:`~pathlab.schedule.exactly_one` of the slices of the
    undecorated letters in its low or high set, and its zero value is 1
    where no letter above it in its run is undecorated; a decorated letter
    reads low at every shift.  Shift s holds where every run before s
    reads all ones low, run s zero, and every run after s high.  The runs
    come from one scan of the word, and no schedule word is built."""
    values = tuple(values)
    if not values:
        yield is_adr(DecoratedPermutation((), frozenset()))
        return
    n = len(values)
    full = (1 << (1 << n - 1)) - 1
    decorated = dict.fromkeys(values, 0)  # letter -> the sets holding it
    for i, c in enumerate(values[:-1]):  # 2^i clear bits, then 2^i set, repeated
        decorated[c] = int(("1" * (1 << i) + "0" * (1 << i)) * (1 << n - 2 - i), 2)
    free = {c: full ^ on for c, on in decorated.items()}
    runs = decreasing_runs(values) + ((),)  # nothing before run 0 or after the last
    reads = []  # per run, the sets on which all its letters read 1 low, zero, high
    for i, run in enumerate(runs[:-1]):
        lo = ze = hi = full
        above = 0  # the sets leaving a letter of the run above c undecorated
        for c in run:
            lows = [free[d] for d in run if d < c] + [free[d] for d in runs[i + 1] if d > c]
            highs = [free[d] for d in run if d > c] + [free[d] for d in runs[i - 1] if d < c]
            low_one = exactly_one(lows)
            lo &= low_one
            as_low = low_one & decorated[c]  # a decorated letter reads low at every shift
            hi &= as_low | free[c] & exactly_one(highs)
            ze &= as_low | free[c] & ~above
            above |= free[c]
        reads.append((lo, ze, hi))
    low, zero, high = zip(*reads)
    ok = [reduce(operator.and_, low[:s] + high[s + 1 :], zero[s]) for s in range(len(zero))]
    found = []
    hits = reduce(operator.or_, ok)
    while hits:
        t = hits.bit_length() - 1
        hits ^= 1 << t
        found.append((t.bit_count(), [i for i in range(n - 1) if t >> i & 1], t))
    for _, members, t in sorted(found):
        word = DecoratedPermutation(values, frozenset(values[i] for i in members))
        yield ADRWitness(word, frozenset(s for s, on in enumerate(ok) if on >> t & 1))


def is_flat_adr(word: DecoratedPermutation) -> bool:
    """All-ones realizable at shift zero."""
    return 0 in ones_shifts(word)


def _chain_decorations(values: tuple[int, ...]) -> set[int]:
    """Shared core of both decorating algorithms: walk leftmost maximal
    cyclic runs from the right end, decorating their interior letters."""
    decorated: set[int] = set()
    j = len(values)
    while j > 1:
        i = lmcr_start(values, j)
        decorated.update(values[i : j - 1])
        j = i
    return decorated


def _first_run_undecorated(values: tuple[int, ...], decorated: AbstractSet[int]) -> int:
    """Undecorated letters in the first decreasing run, which ends at the
    word's first ascent; 0 for the empty word."""
    count = 0
    for k, v in enumerate(values):
        if k and v > values[k - 1]:
            break
        count += v not in decorated
    return count


def _decorates_first(flat: bool, n: int, k: int, first_run_two: bool) -> bool:
    """Whether a decorating algorithm decorates the first letter of a word
    of size n after the cyclic-run walk decorated k letters: the shift-zero
    (``flat``) algorithm when the first decreasing run still holds two
    undecorated letters, the parity algorithm when n - k is even."""
    return first_run_two if flat else (n - k) % 2 == 0


def _decorate(values: tuple[int, ...] | list[int], flat: bool) -> DecoratedPermutation:
    """Both decorating algorithms: the cyclic-run walk, then the first letter
    by :func:`_decorates_first`.  The parity algorithm has no output for the
    empty word and raises ValueError."""
    perm = make_perm(values)
    if not (flat or perm.n):
        raise ValueError("no decoration of the empty word leaves an odd number undecorated")
    decorated = _chain_decorations(perm.values)
    # only the shift-zero rule reads the first run
    first_run_two = flat and _first_run_undecorated(perm.values, decorated) == 2
    if _decorates_first(flat, perm.n, len(decorated), first_run_two):
        decorated.add(perm.values[0])
    return DecoratedPermutation(perm.values, frozenset(decorated))


def dyck_decorate(values: tuple[int, ...] | list[int]) -> DecoratedPermutation:
    """Canonical decoration making the word all-ones realizable at shift zero.

    After the cyclic-run walk, the first letter is additionally decorated
    exactly when the first decreasing run still holds two undecorated letters.
    The empty word has no first run and stays as it is.
    """
    return _decorate(values, flat=True)


def parity_decorate(values: tuple[int, ...] | list[int]) -> DecoratedPermutation:
    """Canonical decoration leaving an odd number of undecorated letters.

    Same cyclic-run walk; the first letter is additionally decorated
    exactly when the number of undecorated letters is even.  The empty word
    has no such decoration and raises ValueError."""
    return _decorate(values, flat=False)


def phi(word: DecoratedPermutation) -> DecoratedPermutation:
    """Toggle the first letter's decoration according to the first run.

    Defined on all-ones realizable words with an odd number of undecorated
    letters; depending on whether the first run holds 0, 1 or 2 undecorated
    letters, the first letter is undecorated, untouched, or decorated.  The
    result is all-ones realizable at shift zero with the same letters and the
    same revmaj."""
    if word.undecorated_count() % 2 == 0:
        raise NotAnADR(f"{word} has an even number of undecorated letters")
    if not is_adr(word):
        raise NotAnADR(f"{word} admits no all-ones shift")
    undec_first = _first_run_undecorated(word.values, word.decorated)
    first = {word.values[0]}
    if undec_first == 0:
        return DecoratedPermutation(word.values, word.decorated - first)
    if undec_first == 1:
        return word
    return DecoratedPermutation(word.values, word.decorated | first)


def delta(m: int, word: DecoratedPermutation) -> DecoratedPermutation:
    """Affine extension: prepend m and shift every letter by m cyclically.

    For a flat all-ones word of size n-1 the output is an all-ones word of
    size n whose letters are m, then (v + m) mod n for each input letter v
    (representatives in 1..n).  Each decorated letter's image is decorated;
    the new first letter m is decorated exactly when the input had an odd
    number of undecorated letters.  revmaj grows by n - m."""
    n = word.n + 1
    if not 1 <= m <= n:
        raise ValueError(f"m must be in 1..{n}, got {m}")
    if not is_flat_adr(word):
        raise NotAnADR(f"{word} is not all-ones realizable at shift zero")
    values = (m,) + tuple((v + m - 1) % n + 1 for v in word.values)
    decorated = {(v + m - 1) % n + 1 for v in word.decorated}
    if word.undecorated_count() % 2 == 1:
        decorated.add(m)
    return DecoratedPermutation(values, frozenset(decorated))


# one entry, the last pass: `pathlab table` asks for S and then D of one n
# in one process, and both read this pass
@lru_cache(maxsize=1)
def _chain_counts(n: int) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """Permutations of size n counted by (chain decorations k, revmaj), split
    by whether their first decreasing run keeps exactly two undecorated letters.

    An insertion DP over words built right to left: prepending a letter of
    rank r in 0..L to a suffix of length L moves the older ranks >= r up by
    one.  The state of a suffix is (rank of the open cyclic run's last
    letter, rank of the first letter, ascents in the open run (0 or 1),
    undecorated letters in the leading decreasing run capped at 3).  The new
    letter extends the open run when the run stays cyclic (at most one
    ascent, and with one the last letter exceeds the new first letter); the
    old first letter then becomes interior and decorated, unless it is the
    last letter of the word.  Otherwise the run closes and the new open run
    is [new letter, old first].  A new letter below the old first adds t^L
    to revmaj.

    Each state carries its counts packed into one integer, ``width`` bits per
    coefficient (no count exceeds n!), revmaj inside a decoration count's
    block of ``row`` bits, so adding two states' counts is one integer sum.
    O(n^4) such sums in all.
    """
    top = n * (n - 1) // 2  # largest revmaj
    width = math.factorial(n).bit_length() + 1
    row = width * (top + 1)
    states = {(0, 0, 0, 1): 1}  # the one-letter suffix
    for length in range(1, n):
        ascent = width * length
        grown: dict[tuple[int, int, int, int], int] = {}
        for (last, first, ascents, undec), packed in states.items():
            shifted = {
                (False, False): packed,
                (False, True): packed << ascent,
                (True, False): packed << row,
                (True, True): packed << (row + ascent),
            }
            for r in range(length + 1):
                below = r <= first
                extend = ascents + below == 0 or (ascents + below == 1 and last >= r)
                if extend:
                    state_last, state_ascents = last + (last >= r), ascents + below
                else:
                    state_last, state_ascents = first + below, below
                decorate = extend and length > 1
                state_undec = 1 if below else min(3, undec + 1 - decorate)
                key = (state_last, r, state_ascents, state_undec)
                grown[key] = grown.get(key, 0) + shifted[decorate, below]
        states = grown
    two = sum(packed for key, packed in states.items() if key[3] == 2)
    other = sum(packed for key, packed in states.items() if key[3] != 2)
    mask = (1 << width) - 1

    def unpack(packed: int) -> dict[tuple[int, int], int]:
        return {
            divmod(slot, top + 1): count
            for slot in range(n * (top + 1))
            if (count := packed >> (slot * width) & mask)
        }

    return unpack(two), unpack(other)


def fast_sums(n: int, kind: str = "square") -> tuple[TPoly, ...]:
    """For each k, t^revmaj summed over the decorating-algorithm outputs
    with k decorations: the parity algorithm's for the signed square sums,
    which vanish when n - k is even, since every output leaves an odd number
    undecorated; the shift-zero algorithm's for the signed Dyck sums.

    Both algorithms decorate the cyclic-run chain, then maybe the first
    letter, so both kinds come from one pass of the insertion DP
    :func:`_chain_counts`, polynomial in n; :func:`_sweep_sums` is its
    oracle."""
    PathFamily(n, 0, kind)
    flat = kind == "dyck"
    acc: list[dict[int, int]] = [dict() for _ in range(n)]
    two, other = _chain_counts(n)
    for first_run_two, counts in ((True, two), (False, other)):
        for (k, d), count in counts.items():
            k += _decorates_first(flat, n, k, first_run_two)
            acc[k][d] = acc[k].get(d, 0) + count
    return tuple(TPoly.from_counts(bucket) for bucket in acc)


def _sweep_sums(n: int, kind: str) -> tuple[TPoly, ...]:
    """:func:`fast_sums` by decorating all n! permutations: the test oracle
    for the insertion DP."""
    acc: list[dict[int, int]] = [dict() for _ in range(n)]
    for values in itertools.permutations(range(1, n + 1)):
        word = _decorate(values, kind == "dyck")
        k = len(word.decorated)
        d = revmaj(word)
        acc[k][d] = acc[k].get(d, 0) + 1
    return tuple(TPoly.from_counts(bucket) for bucket in acc)


def S_fast(n: int, k: int) -> TPoly:
    """``fast_sums(n)[k]``, one k of the square sums; no module of the
    package calls it."""
    PathFamily(n, k)
    return fast_sums(n)[k]


def D_fast(n: int, k: int) -> TPoly:
    """``fast_sums(n, "dyck")[k]``, one k of the Dyck sums; no module of
    the package calls it."""
    PathFamily(n, k, "dyck")
    return fast_sums(n, "dyck")[k]


def recursive_sums(n: int) -> tuple[TPoly, ...]:
    """The square sums via the Dyck ones, for each k: [n]_t (D(n-1, k) +
    D(n-1, k-1)) when n - k is odd, zero otherwise, where D(0, 0) = 1 (the
    empty path) and D(n-1, j) = 0 for any other j outside 0..n-2.  One DP
    pass of size n - 1 (:func:`fast_sums`)."""
    PathFamily(n, 0)
    dyck = (*fast_sums(n - 1, "dyck"), TPoly()) if n > 1 else (TPoly.one(),)
    below = (TPoly(),) + dyck  # below[k] = D(n-1, k-1)
    scale = t_analog(n)
    return tuple(
        scale * (dyck[k] + below[k]) if (n - k) % 2 else TPoly() for k in range(n)
    )


def euler_specialization(n: int) -> TPoly:
    """Closed form of the undecorated signed square enumerator for odd n:
    [n]_t t^floor((n-1)^2 / 4) times the alternating-permutation polynomial
    of size n - 1 (taken to be 1 when n = 1)."""
    if n < 1 or n % 2 == 0:
        raise ValueError("defined for odd n >= 1")
    tail = TPoly.one() if n == 1 else euler_t(n - 1)
    return t_analog(n) * TPoly.monomial((n - 1) ** 2 // 4) * tail

