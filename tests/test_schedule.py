"""Diagonal words, runs, schedule numbers, and the product formula."""

from __future__ import annotations

import itertools
import math
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathlab.adr import adr_decorations
from pathlab.enumeration import KINDS, PathFamily, generate
from pathlab.paths import area_word, word_shift
from pathlab.poly import QTPoly
from pathlab.schedule import (
    DecoratedPermutation,
    ShiftedDiagonalWord,
    _is_cyclic_run_by_rotation,
    _lmcr_start_by_windows,
    _revmaj_by_reversal,
    _schedule_table,
    decreasing_runs,
    diagonal_word,
    format_perm,
    is_cyclic_run,
    lmcr,
    lmcr_start,
    make_perm,
    ones_shifts,
    parse_perm,
    revmaj,
    rmcr,
    schedule_numbers,
    schedule_numbers_cyclic,
    schedule_rhs,
    u_statistic,
)

from conftest import BIG_WORD, FIBER_SHIFT, FIBER_WORD, profiled_calls, random_square_path


def all_decorated_perms(n):
    # decoration sets as combinations of the letters in word order, the
    # order adr_decorations lists them in
    for values in itertools.permutations(range(1, n + 1)):
        for r in range(n + 1):
            for dec in itertools.combinations(values, r):
                yield DecoratedPermutation(values, frozenset(dec))


class TestWordBasics:
    def test_parse_format_round_trip(self, big_word):
        assert big_word.decorated == {7, 4}  # the starred letters
        assert format_perm(big_word) == BIG_WORD
        assert parse_perm(format_perm(big_word)) == big_word

    def test_make_perm_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            make_perm((1, 1, 2))
        with pytest.raises(ValueError):
            make_perm((1, 3))

    def test_make_perm_rejects_decorations_outside_the_word(self):
        with pytest.raises(ValueError):
            make_perm((1, 2), {3})

    def test_runs(self, big_word):
        assert decreasing_runs(big_word) == ((7,), (8, 4, 2), (3,), (5,), (6, 1))

    def test_maj_and_revmaj(self, big_word):
        assert revmaj(big_word) == 16
        # major index read from the right: 123 has both, 321 has none
        assert revmaj(make_perm((1, 2, 3))) == 3
        assert revmaj(make_perm((3, 2, 1))) == 0

    def test_diagonal_word_of_path(self, small_path):
        sdw = diagonal_word(small_path)
        assert format_perm(sdw.word) == "3* 1 2"
        assert sdw.word.decorated == {3}  # the label of decorated step 3
        assert sdw.shift == 0

    def test_revmaj_is_maj_of_the_reversed_word(self):
        # every permutation with n <= 6, and the empty word
        for n in range(7):
            for values in itertools.permutations(range(1, n + 1)):
                assert revmaj(values) == _revmaj_by_reversal(values), values

    def test_diagonal_reading_matches_the_definitional_sort(self):
        """diagonal_word, whose letters come from one sort of packed keys,
        equals the labels sorted by (diagonal, decreasing label), with the
        decorated steps' labels decorated and the path's shift: for every
        path of both kinds with n <= 5, and 200 seeded square paths for
        each n from 10 to 20."""

        def definitional(path):
            a = area_word(path)
            pairs = sorted(zip(a, path.labels), key=lambda dc: (dc[0], -dc[1]))
            decorated = frozenset(path.labels[i - 1] for i in path.decorations)
            word = DecoratedPermutation(tuple(c for _, c in pairs), decorated)
            return ShiftedDiagonalWord(word, word_shift(a))

        small = (
            p
            for n in range(1, 6)
            for kind in KINDS
            for k in range(n)
            for p in generate(PathFamily(n, k, kind))
        )
        rng = random.Random(33)
        seeded = (random_square_path(rng, n) for n in range(10, 21) for _ in range(200))
        for path in itertools.chain(small, seeded):
            assert diagonal_word(path) == definitional(path), path

    def test_cyclic_runs(self):
        # 8 4 2 becomes a decreasing run after adding some m modulo 8
        assert is_cyclic_run((8, 4, 2))
        assert is_cyclic_run((2, 8))  # m = 1 gives 3 1
        assert not is_cyclic_run((2, 4, 8))
        assert is_cyclic_run((5,))

    def test_cyclic_run_matches_rotations(self):
        # every factor of every permutation with n <= 7
        factors = 0
        for n in range(1, 8):
            for values in itertools.permutations(range(1, n + 1)):
                for i in range(n):
                    for j in range(i + 1, n + 1):
                        factor = values[i:j]
                        assert is_cyclic_run(factor) == _is_cyclic_run_by_rotation(factor, n)
                        factors += 1
        assert factors == 158_323

    def test_lmcr_rmcr(self):
        values = (8, 5, 2, 9, 6, 1, 7, 4, 3)
        word = make_perm(values)
        # (1, 7, 4, 3) + 8 modulo 9 reads 9 6 3 2, a decreasing word
        assert lmcr(word, 9) == (1, 7, 4, 3)
        # (8, 5, 2, 9) + 1 modulo 9 reads 9 6 3 1
        assert rmcr(word, 1) == (8, 5, 2, 9)

    def test_lmcr_start_matches_the_window_rescan(self):
        # every end position of every permutation with n <= 8, and of every
        # word of length <= 6 over 1..3, where letters repeat
        words = itertools.chain(
            *(itertools.permutations(range(1, n + 1)) for n in range(1, 9)),
            *(itertools.product(range(1, 4), repeat=n) for n in range(1, 7)),
        )
        ends = 0
        for values in words:
            for j in range(1, len(values) + 1):
                assert lmcr_start(values, j) == _lmcr_start_by_windows(values, j), (values, j)
                ends += 1
        # sum of n * n! for n <= 8 is 9! - 1; sum of n * 3^n for n <= 6 is 6,015
        assert ends == 362_879 + 6_015

    @pytest.mark.parametrize("fn", [lmcr_start, lmcr, rmcr])
    @pytest.mark.parametrize("position", [-1, 0, 4])
    def test_positions_outside_the_word_raise(self, fn, position):
        # each once returned a wrong factor: lmcr((3, 1, 2), 4) read (1, 2)
        with pytest.raises(ValueError, match=rf"position {position} is outside 1\.\.3"):
            fn((3, 1, 2), position)


class TestScheduleNumbers:
    def test_all_shift_table(self, big_word):
        expected = {
            0: (1, 0, 1, 1, 1, 1, 1, 1),
            1: (1, 1, 1, 2, 1, 1, 1, 1),
            2: (1, 1, 1, 1, 1, 1, 1, 1),
            3: (1, 1, 1, 1, 1, 1, 1, 1),
            4: (1, 1, 1, 1, 1, 1, 1, 2),
        }
        for s, sched in expected.items():
            assert schedule_numbers(ShiftedDiagonalWord(big_word, s)) == sched

    def test_shift_at_least_runs_gives_zeros(self, big_word):
        sdw = ShiftedDiagonalWord(big_word, 5)
        assert schedule_numbers(sdw) == (0,) * 8

    def test_empty_word(self):
        for s in range(2):
            sdw = ShiftedDiagonalWord(DecoratedPermutation(()), s)
            assert schedule_numbers(sdw) == ()
            assert u_statistic(sdw) == 0

    def test_one_scan_and_no_runs_per_call(self, big_word):
        # every shift of schedule_numbers and u_statistic reads the word's
        # one ScheduleTable: one scan per word object, across all twelve
        # calls, and no decreasing_runs tuple
        codes = {decreasing_runs.__code__, _schedule_table.__code__}
        word = DecoratedPermutation(big_word.values, big_word.decorated)  # no table yet

        def every_shift():
            for s in range(6):
                sdw = ShiftedDiagonalWord(word, s)
                schedule_numbers(sdw)
                u_statistic(sdw)

        _, calls = profiled_calls(codes, every_shift)
        assert [call.code for call in calls] == [_schedule_table.__code__]

    def test_u_statistic_counts_the_first_shift_runs(self):
        # every decorated word with n <= 5, at every shift from 0 to n
        for n in range(1, 6):
            for word in all_decorated_perms(n):
                runs = decreasing_runs(word)
                for s in range(n + 1):
                    below = [v for run in runs[:s] for v in run if v not in word.decorated]
                    assert u_statistic(ShiftedDiagonalWord(word, s)) == len(below), (word, s)

    def test_path_schedule_word(self, small_path):
        assert schedule_numbers(diagonal_word(small_path)) == (1, 1, 1)

    def test_negative_shift_raises(self):
        # schedule_numbers would read the run below run 0 as the last run;
        # no shifted word reaches it, nor schedule_numbers_cyclic or u_statistic
        with pytest.raises(ValueError, match="shift must be at least 0"):
            ShiftedDiagonalWord(make_perm((2, 1)), -1)

    def test_cyclic_reformulation_matches(self):
        """Every decorated word with n <= 5 (n! * 2^n words, 3,840 at
        n = 5), at every shift from 0 to n, so at and past its number of
        runs too."""
        for n in range(1, 6):
            for word in all_decorated_perms(n):
                for s in range(n + 1):
                    sdw = ShiftedDiagonalWord(word, s)
                    assert schedule_numbers(sdw) == schedule_numbers_cyclic(sdw), sdw

    @given(st.permutations(list(range(1, 6))), st.integers(0, 5))
    def test_cyclic_reformulation_matches_n5(self, values, s):
        word = make_perm(values)
        sdw = ShiftedDiagonalWord(word, s)
        assert schedule_numbers(sdw) == schedule_numbers_cyclic(sdw)

    def test_cyclic_reformulation_matches_large_words(self):
        """A seeded corpus of 220 decorated words, n 10 to 20 (the sizes of
        the benchmark's word queries), each decoration drawn with
        probability 1/2, at every shift from 0 to the number of runs."""
        rng = random.Random(19)
        for i in range(220):
            n = 10 + i % 11
            values = tuple(rng.sample(range(1, n + 1), n))
            word = make_perm(values, (p for p in range(1, n + 1) if rng.random() < 0.5))
            for s in range(len(decreasing_runs(word)) + 1):
                sdw = ShiftedDiagonalWord(word, s)
                assert schedule_numbers(sdw) == schedule_numbers_cyclic(sdw), sdw


class TestOnesShifts:
    def test_matches_schedule_numbers(self):
        """Every decorated word with n <= 6 (n! * 2^n words, 46,080 at n = 6,
        50,363 with the empty word): exactly the shifts from 0 to n whose
        schedule word is all ones, so none at or past the number of runs,
        and shift 0 alone for the empty word.  ones_shifts and
        schedule_numbers share the word's ScheduleTable, so the cyclic
        formulation and the bit-slice sweep of adr_decorations, which share
        nothing with it, are checked too.  The sweep never decorates the
        last letter, so a word with its last letter decorated must have no
        all-ones shift."""
        assert ones_shifts(DecoratedPermutation((), frozenset())) == frozenset({0})
        words = 0
        values = None
        for n in range(7):
            ones = (1,) * n
            for word in all_decorated_perms(n):
                if word.values != values:
                    values = word.values
                    sweep = {w.word.decorated: w.valid_shifts for w in adr_decorations(values)}
                shifts = ones_shifts(word)
                for schedules in (schedule_numbers, schedule_numbers_cyclic):
                    assert shifts == {
                        s for s in range(n + 1)
                        if schedules(ShiftedDiagonalWord(word, s)) == ones
                    }, (word, schedules)
                assert shifts == sweep.get(word.decorated, frozenset()), word
                words += 1
        assert words == 50_363


class TestScheduleTableCache:
    def test_cache_is_invisible(self):
        """A word whose table and all-ones shifts are computed is the same
        value as a fresh equal word: equality, hash, repr, str and pickles
        see the fields only."""
        used, fresh = parse_perm(BIG_WORD), parse_perm(BIG_WORD)
        assert schedule_numbers(ShiftedDiagonalWord(used, 2)) == (1,) * 8
        assert ones_shifts(used) == {2, 3}
        assert "_table" in vars(used) and "_table" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) and str(used) == str(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        loaded = pickle.loads(pickle.dumps(used))
        assert loaded == fresh and "_table" not in vars(loaded)
        assert ones_shifts(loaded) == {2, 3}  # rebuilt on use
        for s in range(6):
            a, b = ShiftedDiagonalWord(used, s), ShiftedDiagonalWord(fresh, s)
            assert a == b and hash(a) == hash(b)
            assert a != ShiftedDiagonalWord(fresh, s + 1)


class TestProductFormula:
    def test_fiber_word_closed_form(self):
        word = parse_perm(FIBER_WORD)
        sdw = ShiftedDiagonalWord(word, FIBER_SHIFT)
        assert schedule_numbers(sdw) == (2, 2, 1, 2, 1, 1, 2)
        assert u_statistic(sdw) == 1
        # q * t^6 * (1 + q)^4
        assert schedule_rhs(sdw) == QTPoly(
            {(1, 6): 1, (2, 6): 4, (3, 6): 6, (4, 6): 4, (5, 6): 1}
        )
        assert schedule_rhs(sdw).eval_q(1)(1) == 16

    def test_count_is_product_of_schedules(self, big_word):
        # the closed form at q = t = 1, so a fiber's size, is the product of
        # the schedule numbers: checked for every shifted diagonal word with
        # n <= 4, and for the all-ones big word
        for n in range(1, 5):
            for values in itertools.permutations(range(1, n + 1)):
                for r in range(n + 1):
                    for decorated in itertools.combinations(range(1, n + 1), r):
                        word = DecoratedPermutation(values, frozenset(decorated))
                        for s in range(len(decreasing_runs(word)) + 1):
                            sdw = ShiftedDiagonalWord(word, s)
                            product = math.prod(schedule_numbers(sdw))
                            assert schedule_rhs(sdw).eval_q(1)(1) == product
        assert schedule_rhs(ShiftedDiagonalWord(big_word, 2)).eval_q(1)(1) == 1
