"""Word-side representatives: membership, decorating algorithms, phi, fast sums.

The exhaustive properties (decoration uniqueness, the phi and delta
bijections, agreement with the brute sums, the recursion and the factorial
identity) are checked by acceptance criteria 02 and 06-08 through the verify
suites; the fast sums' insertion DP is checked here against the sweep over
all permutations."""

from __future__ import annotations

import itertools
import random

import pytest

from pathlab.adr import (
    D_fast,
    NotAnADR,
    S_fast,
    _chain_counts,
    _chain_counts_by_states,
    _sweep_sums,
    adr_decorations,
    delta,
    dyck_decorate,
    euler_specialization,
    fast_sums,
    is_adr,
    is_flat_adr,
    parity_decorate,
    phi,
)
from pathlab.poly import TPoly, t_factorial
from pathlab.schedule import (
    DecoratedPermutation,
    _lmcr_start_by_windows,
    _undecorated_runs,
    decreasing_runs,
    diagonal_word,
    is_cyclic_run,
    lmcr_start,
    make_perm,
    parse_perm,
    schedule_numbers,
)

from conftest import all_adrs, profiled_calls


class TestMembership:
    def test_decorated_example_word(self, big_word):
        witness = is_adr(big_word)
        assert bool(witness)
        assert witness.valid_shifts == frozenset({2, 3})
        assert not is_flat_adr(big_word)  # its shift-0 schedule has a zero

    def test_trivial_word(self):
        witness = is_adr(make_perm((1,)))
        assert witness.valid_shifts == frozenset({0})
        assert is_flat_adr(make_perm((1,)))

    def test_empty_word_is_all_ones_at_shift_zero(self):
        # delta(1, .) extends the empty word, so both predicates must accept it
        empty = DecoratedPermutation((), frozenset())
        assert is_adr(empty).valid_shifts == frozenset({0})
        assert is_flat_adr(empty)
        assert list(adr_decorations(())) == [is_adr(empty)]

    def test_dyck_representative(self):
        word = parse_perm("8 5* 2* 9 6* 1 7* 4* 3")
        assert 0 in is_adr(word).valid_shifts

    @pytest.mark.parametrize("n", range(1, 7))
    def test_decorations_match_the_per_word_sweep(self, n):
        # every decoration set by size, then as combinations of the letters
        # in word order, each word tested on its own; no two ADR decorations
        # share a size, so the sizes strictly increase
        for values in itertools.permutations(range(1, n + 1)):
            words = (
                DecoratedPermutation(values, frozenset(combo))
                for r in range(n + 1)
                for combo in itertools.combinations(values, r)
            )
            got = list(adr_decorations(values))
            assert got == [witness for witness in map(is_adr, words) if witness]
            sizes = [len(witness.word.decorated) for witness in got]
            assert all(a < b for a, b in zip(sizes, sizes[1:])), values
            assert all(size < n for size in sizes)

    def test_decorations_scan_the_runs_once(self):
        # every decoration set of a permutation is scored on bit slices of
        # one decreasing_runs scan: no ScheduleTable, and no schedule word
        # or diagonal word built for any set
        codes = {
            decreasing_runs.__code__,
            _undecorated_runs.__code__,
            schedule_numbers.__code__,
            diagonal_word.__code__,
        }
        for n in range(1, 7):
            for values in itertools.permutations(range(1, n + 1)):
                _, calls = profiled_calls(codes, lambda: list(adr_decorations(values)))
                assert [call.code for call in calls] == [decreasing_runs.__code__], values

    def test_adr_word_counts(self):
        # the ADR words of size n, summed over the permutations' decorations
        counts = [
            sum(1 for values in itertools.permutations(range(1, n + 1))
                for _ in adr_decorations(values))
            for n in range(1, 8)
        ]
        assert counts == [1, 3, 10, 43, 226, 1_398, 9_948]

    def test_all_adrs_counts(self):
        # representatives with an odd number of undecorated letters are in
        # bijection with permutations
        for n in range(1, 6):
            odd = sum(
                len(all_adrs(n, k)) for k in range(n) if (n - k) % 2 == 1
            )
            assert odd == len(list(itertools.permutations(range(n))))


class TestDecoratingAlgorithms:
    def test_dyck_example(self):
        assert dyck_decorate((8, 5, 2, 9, 6, 1, 7, 4, 3)) == parse_perm(
            "8 5* 2* 9 6* 1 7* 4* 3"
        )

    def test_parity_example(self):
        assert parity_decorate((8, 5, 2, 9, 6, 1, 7, 4, 3)) == parse_perm(
            "8* 5* 2* 9 6* 1 7* 4* 3"
        )

    def test_small_cases(self):
        assert dyck_decorate((1, 2, 3)) == make_perm((1, 2, 3))
        assert dyck_decorate((3, 2, 1)) == parse_perm("3* 2* 1")
        assert parity_decorate((2, 1, 3)) == parse_perm("2* 1* 3")
        assert parity_decorate((3, 1, 2)) == make_perm((3, 1, 2))

    def test_parity_dec_examples(self):
        assert len(parity_decorate((8, 5, 2, 9, 6, 1, 7, 4, 3)).decorated) == 6
        assert len(parity_decorate((1, 2, 3)).decorated) == 0
        assert len(parity_decorate((3, 2, 1)).decorated) == 2

    def test_dyck_keeps_the_empty_word(self):
        # the flat source that delta(1, .) extends to the word 1
        empty = dyck_decorate(())
        assert empty == DecoratedPermutation((), frozenset())
        assert is_flat_adr(empty)

    def test_parity_rejects_the_empty_word(self):
        # no decoration of no letters leaves an odd number undecorated
        with pytest.raises(ValueError, match="empty word"):
            parity_decorate(())

    def test_decorations_match_a_window_walk(self):
        # both algorithms against their definition: runs found by the window
        # rescan, the first run read off decreasing_runs
        rng = random.Random(25)
        for n in range(61):
            for _ in range(5):
                values = tuple(rng.sample(range(1, n + 1), n))
                decorated = _window_walk_decorations(values)
                first_run = decreasing_runs(values)[0] if values else ()
                dyck = set(decorated)
                if sum(1 for v in first_run if v not in decorated) == 2:
                    dyck.add(values[0])
                assert dyck_decorate(values).decorated == dyck, values
                if n:
                    parity = set(decorated)
                    if (n - len(decorated)) % 2 == 0:
                        parity.add(values[0])
                    assert parity_decorate(values).decorated == parity, values

    @pytest.mark.parametrize("decorate", [dyck_decorate, parity_decorate])
    def test_one_scan_per_chain_run(self, decorate):
        # each run of the chain is found by one lmcr_start call, starting
        # where the run to its right starts, with no window rescan
        codes = {lmcr_start.__code__, is_cyclic_run.__code__}
        rng = random.Random(60)
        for n in range(30, 61):
            values = tuple(rng.sample(range(1, n + 1), n))
            _, calls = profiled_calls(codes, decorate, values)
            assert {call.code for call in calls} == {lmcr_start.__code__}
            ends = [n]
            while ends[-1] > 1:
                ends.append(_lmcr_start_by_windows(values, ends[-1]))
            assert [call.locals["j"] for call in calls] == ends[:-1], values


def _window_walk_decorations(values):
    """Interior letters of the leftmost maximal cyclic runs chained from
    the right end, each run found by the window rescan."""
    decorated, j = set(), len(values)
    while j > 1:
        i = _lmcr_start_by_windows(values, j)
        decorated.update(values[i : j - 1])
        j = i
    return decorated


class TestPhi:
    def test_rejects_non_members(self):
        # three undecorated letters, but no all-ones shift
        with pytest.raises(NotAnADR, match="admits no all-ones shift"):
            phi(parse_perm("2 1 3"))

    def test_rejects_an_even_undecorated_count(self):
        with pytest.raises(NotAnADR, match="even number of undecorated letters"):
            phi(parse_perm("2 1"))


class TestDelta:
    @pytest.mark.parametrize("m", [0, 4])
    def test_rejects_m_outside_one_to_n(self, m):
        # a flat word of size 2 extends to size 3
        with pytest.raises(ValueError, match=r"m must be in 1\.\.3"):
            delta(m, dyck_decorate((2, 1)))

    def test_rejects_a_word_that_is_not_flat(self, big_word):
        with pytest.raises(NotAnADR, match="not all-ones realizable at shift zero"):
            delta(1, big_word)


class TestFastSums:
    def test_table_values(self):
        assert S_fast(1, 0) == TPoly.one()
        assert S_fast(2, 0) == TPoly.zero()
        assert S_fast(2, 1) == TPoly([1, 1])
        assert S_fast(3, 0) == TPoly([0, 1, 1, 1])
        assert S_fast(3, 1) == TPoly.zero()
        assert S_fast(3, 2) == TPoly([1, 1, 1])
        assert D_fast(1, 0) == TPoly.one()
        assert D_fast(2, 0) == TPoly([0, 1])
        assert D_fast(2, 1) == TPoly.one()
        assert D_fast(3, 0) == TPoly([0, 0, 1, 1])
        assert D_fast(3, 1) == TPoly([0, 2, 1])
        assert D_fast(3, 2) == TPoly.one()

    @pytest.mark.parametrize("flat", [False, True])
    def test_dp_matches_sweep(self, flat):
        # both algorithms, every k, every n <= 8
        kind = "dyck" if flat else "square"
        for n in range(1, 9):
            assert fast_sums(n, kind) == _sweep_sums(n, kind), n

    def test_streamed_dp_matches_the_state_dp(self):
        # both halves, every n <= 16
        for n in range(1, 17):
            assert _chain_counts(n) == _chain_counts_by_states(n), n

    @pytest.mark.parametrize("flat", [False, True])
    def test_dp_sums_to_factorial_at_twenty(self, flat):
        total = TPoly.zero()
        for bucket in fast_sums(20, "dyck" if flat else "square"):
            total = total + bucket
        assert total == t_factorial(20)

    def test_memo_holds_the_last_pass(self):
        """The Dyck sums right after the square ones of the same n run no
        DP pass of their own, and the DP memo keeps the last pass alone:
        asking again for the n before it runs that pass again."""
        dp = {_chain_counts.__wrapped__.__code__}
        fast_sums(6)
        _, square = profiled_calls(dp, fast_sums, 7)
        _, dyck = profiled_calls(dp, fast_sums, 7, "dyck")
        _, again = profiled_calls(dp, fast_sums, 6, "dyck")
        assert [call.locals["n"] for call in square] == [7]
        assert dyck == []
        assert [call.locals["n"] for call in again] == [6]
        assert _chain_counts.cache_info().currsize == 1

    def test_euler_specialization(self):
        assert euler_specialization(1) == TPoly.one()
        assert euler_specialization(3) == TPoly([0, 1, 1, 1])
        assert euler_specialization(5) == S_fast(5, 0)
        with pytest.raises(ValueError):
            euler_specialization(4)
