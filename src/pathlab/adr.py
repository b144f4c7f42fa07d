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
computes those sums with O(n^3) big-integer additions (in a fresh process,
n = 28 takes 1.5-2 s and n = 36 about 10 s and 830 MB); decorating all
n! permutations, its test oracle, stops near n = 9.
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
    """Both decorating algorithms: walk the leftmost maximal cyclic runs from
    the right end, each ending where the last one starts, decorating their
    interior letters; then the first letter by :func:`_decorates_first`.
    The parity algorithm has no output for the empty word and raises
    ValueError."""
    values = make_perm(values).values
    n = j = len(values)
    if not (flat or n):
        raise ValueError("no decoration of the empty word leaves an odd number undecorated")
    decorated: set[int] = set()
    while j > 1:
        i = lmcr_start(values, j)
        decorated.update(values[i : j - 1])
        j = i
    # only the shift-zero rule reads the first run
    first_run_two = flat and _first_run_undecorated(values, decorated) == 2
    if _decorates_first(flat, n, len(decorated), first_run_two):
        decorated.add(values[0])
    return DecoratedPermutation(values, frozenset(decorated))


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


def _packing(n: int) -> tuple[int, int]:
    """How the insertion DP packs the counts of size n into one integer:
    ``width`` bits per coefficient (no count exceeds n!), and revmaj inside a
    decoration count's block of ``row`` bits."""
    width = math.factorial(n).bit_length() + 1
    return width, width * (n * (n - 1) // 2 + 1)


def _unpack(n: int, packed: int) -> dict[tuple[int, int], int]:
    """The nonzero counts of a packed integer of size n, by (decorations,
    revmaj).  Each decoration count's block is cut off once and its revmaj
    fields read from the block, so the whole integer is shifted n times."""
    width, row = _packing(n)
    mask, block_mask = (1 << width) - 1, (1 << row) - 1
    counts = {}
    for k in range(n):
        block = packed >> (k * row) & block_mask
        for d in range(row // width):  # revmaj 0..C(n, 2)
            if count := block >> (d * width) & mask:
                counts[k, d] = count
    return counts


# one entry, the last pass, which the S and D sums of one n both read: the
# CLI asks for one stat per process, but the cancellation-word, sum-factorial,
# euler and egf suites, and the benchmark's table op (two `cli.main` calls in
# one worker), ask for both kinds of one n in one process
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

    Each state carries its counts packed into one integer
    (:func:`_packing`), so adding two states' counts is one integer sum.
    With d = [L > 1], whether an extended run decorates the old first
    letter, rank r sends the state (l, f, a, u) to one of six destinations:

    1. a = 0, f < r: (l + [l >= r], r, 0, min(3, u + 1 - d)), with d more
       decorations;
    2. a = 0, r <= f, r <= l: (l + 1, r, 1, 1), with d more decorations and
       t^L;
    3. a = 0, l < r <= f: (f + 1, r, 1, 1), with t^L;
    4. a = 1, f < r <= l: (l + 1, r, 1, min(3, u + 1 - d)), with d more
       decorations;
    5. a = 1, l < r, f < r: (f, r, 0, min(3, u + 1));
    6. a = 1, r <= f: (f + 1, r, 1, 1), with t^L.

    From length 2 on every state has u = 2 - a: the one-letter suffix
    (0, 0, 0, 1) goes to (0, 1, 0, 2) and (1, 0, 1, 1), and with d = 1
    each destination keeps u = 2 - a.  So u needs no coordinate, and a
    splits the words: those whose open run has no ascent keep two
    undecorated letters in their first decreasing run, the others one.
    The states of each a form a dense L x L block over (l, f),
    and each destination of a rank sums part of one row (1, 2 and 4, over
    f < r or f >= r at fixed l) or one column (3 and 5 over l < r, 6 over
    every l, at fixed f).  Each row or column keeps its running sum as r
    grows, so a length costs O(L^2) integer additions, O(n^3) in all.
    Each block of the old length is dropped once read.  Only the totals of
    the last length are read, so each of its blocks is one list standing
    for every row, summed over all last ranks as it fills.
    :func:`_chain_counts_by_states`, the same DP one state at a time, with
    u, is its oracle.
    """
    if n == 1:  # the one-letter suffix keeps one undecorated letter
        return {}, _unpack(n, 1)
    width, row = _packing(n)
    blocks = [[[1]], [[0]]]  # blocks[ascents][last][first]: packed counts
    for length in range(1, n):
        size, ascent = length + 1, width * length
        dec = row * (length > 1)
        if length < n - 1:
            grown = [[[0] * size for _ in range(size)] for _ in blocks]
        else:  # every row one list
            grown = [[[0] * size] * size for _ in blocks]
        flat, rising = grown  # no ascent in the open run, or one
        block = blocks.pop(0)
        for f in range(length):  # transition 3
            dest, s = rising[f + 1], 0
            for r in range(f + 1):
                dest[r] += s << ascent
                s += block[r][f]
        for l, cells in enumerate(block):  # transitions 1 and 2
            whole, s = sum(cells) << dec, 0
            up, same, fresh = flat[l + 1], flat[l], rising[l + 1]
            for r in range(l + 1):
                shifted = s << dec
                up[r] += shifted
                fresh[r] += (whole - shifted) << ascent
                s += cells[r]
            for r in range(l + 1, size):
                same[r] += s << dec
                if r < length:
                    s += cells[r]
        block = blocks.pop()
        for f in range(length):  # transitions 5 and 6
            column = [cells[f] for cells in block]
            dest, total = rising[f + 1], sum(column) << ascent
            for r in range(f + 1):
                dest[r] += total
            dest, s = flat[f], sum(column[: f + 1])
            for r in range(f + 1, size):
                dest[r] += s
                if r < length:
                    s += column[r]
        for l, cells in enumerate(block):  # transition 4
            dest, s = rising[l + 1], 0
            for r in range(l + 1):
                dest[r] += s << dec
                s += cells[r]
        blocks = grown
    return _unpack(n, sum(flat[0])), _unpack(n, sum(rising[0]))


def _chain_counts_by_states(n: int) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """:func:`_chain_counts` one state at a time: the test oracle for its
    streamed form.  Each reached state, in a dict, fans out to all L + 1
    ranks, O(n^4) integer additions in all."""
    width, row = _packing(n)
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
    return _unpack(n, two), _unpack(n, other)


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


def t_one_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """For every m = 0..n, the Dyck sums D(m, k) at t = 1 for k = 0..m - 1,
    trailing zeros dropped (row 0 is D(0, 0) = 1, the empty path), read off
    an exponential generating function: checked, not proved.

    With s = sqrt(1 - y^2), the series F(x, y) of D(m, k)(1) y^k x^m / m!
    appears to satisfy F'/F = s / (s cos(xs) - y sin(xs)), that is
    F = E(xs + a) / E(a) with E = sec + tan and a = arcsin y: the Euler
    numbers at y = 0, and 1 / (1 - x), the sums of every k, at y = 1.  The
    denominator cos(xs) - (y/s) sin(xs) has the coefficients
    c_2j = (-1)^j (1 - y^2)^j and c_2j+1 = -y c_2j; its reciprocal h has
    h_0 = 1 and h_m = -sum over i = 1..m of C(m, i) c_i h_(m-i), and F' = hF
    gives f_0 = 1 and f_(m+1) = sum over i = 0..m of C(m, i) h_i f_(m-i),
    whose y^k coefficient is D(m + 1, k)(1).  The polynomials in y are
    held as :class:`~pathlab.poly.TPoly`.  The ``egf`` suite holds the rows
    to :func:`fast_sums` for every k; the square sums at t = 1 follow from
    them as in :func:`recursive_sums`."""
    c, h, f = [TPoly.one()], [TPoly.one()], [TPoly.one()]
    for m in range(1, n + 1):
        c.append(TPoly((0, -1)) * c[-1] if m % 2 else TPoly((-1, 0, 1)) * c[-2])
        h.append(-sum(
            (TPoly((math.comb(m, i),)) * c[i] * h[m - i] for i in range(1, m + 1)), TPoly()
        ))
        f.append(sum(
            (TPoly((math.comb(m - 1, i),)) * h[i] * f[m - 1 - i] for i in range(m)), TPoly()
        ))
    return tuple(row.coeffs for row in f)


def euler_specialization(n: int) -> TPoly:
    """Closed form of the undecorated signed square enumerator for odd n:
    [n]_t t^floor((n-1)^2 / 4) times the alternating-permutation polynomial
    of size n - 1 (taken to be 1 when n = 1)."""
    if n < 1 or n % 2 == 0:
        raise ValueError("defined for odd n >= 1")
    tail = TPoly.one() if n == 1 else euler_t(n - 1)
    return t_analog(n) * TPoly.monomial((n - 1) ** 2 // 4) * tail

