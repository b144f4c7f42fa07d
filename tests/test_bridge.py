"""Word-to-path reconstruction and the cutting-cycle classes of schedule-one
paths."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from pathlab.adr import dyck_decorate, is_adr, parity_decorate
from pathlab.bridge import ScheduleNotOne, _fiber_paths, classes, path_from_sdw
from pathlab.cutting import canonical_rep
from pathlab.paths import DecoratedLabeledPath, area, format_path, parse_path
from pathlab.schedule import (
    DecoratedPermutation,
    ShiftedDiagonalWord,
    _undecorated_runs,
    decreasing_runs,
    diagonal_word,
    exactly_one,
    make_perm,
    parse_perm,
    schedule_numbers,
)

from conftest import BIG_CYCLE, FIBER_SHIFT, FIBER_WORD, all_adrs, profiled_calls


class TestPathFromSdw:
    def test_big_word_both_shifts(self, big_word):
        assert format_path(path_from_sdw(big_word, 2)) == BIG_CYCLE[2]
        assert format_path(path_from_sdw(big_word, 3)) == BIG_CYCLE[3]

    def test_trivial(self):
        assert format_path(path_from_sdw(make_perm((1,)), 0)) == "NE:1:"

    def test_empty_word_is_the_empty_path(self):
        # the empty word is all ones at shift 0, and its fiber is the empty path
        empty = DecoratedPermutation((), frozenset())
        assert path_from_sdw(empty, 0) == DecoratedLabeledPath("", ())
        assert _fiber_paths(empty, 0) == (path_from_sdw(empty, 0),)

    def test_one_word_query_builds_one_table(self):
        # is_adr, the schedules at every shift and the rebuild of the path
        # all read the word's one cached table: one scan per decorated word
        # and no bit-slice scoring of many decoration sets, for every
        # permutation with n <= 5 and a seeded corpus of 44 with n 10 to 20
        rng = random.Random(24)
        perms = [p for n in range(1, 6) for p in itertools.permutations(range(1, n + 1))]
        perms += [tuple(rng.sample(range(1, n + 1), n)) for n in range(10, 21) for _ in range(4)]
        codes = {_undecorated_runs.__code__, exactly_one.__code__}

        def query(word):
            shifts = is_adr(word).valid_shifts
            for s in range(len(decreasing_runs(word))):
                schedule_numbers(ShiftedDiagonalWord(word, s))
            return path_from_sdw(word, min(shifts))

        for values in perms:
            for word in (dyck_decorate(values), parity_decorate(values)):
                path, calls = profiled_calls(codes, query, word)
                assert diagonal_word(path).word == word
                assert [call.code for call in calls] == [_undecorated_runs.__code__], word

    def test_rejects_other_shifts(self, big_word):
        with pytest.raises(ScheduleNotOne):
            path_from_sdw(big_word, 0)

    def test_round_trips_every_valid_shift(self):
        for n in range(1, 5):
            for k in range(n):
                for witness in all_adrs(n, k):
                    for s in witness.valid_shifts:
                        p = path_from_sdw(witness.word, s)
                        sdw = diagonal_word(p)
                        assert (sdw.word, sdw.shift) == (witness.word, s)
                        assert schedule_numbers(sdw) == (1,) * n

    def test_matches_unique_fiber_member(self):
        for n in range(1, 5):
            for k in range(n):
                for witness in all_adrs(n, k):
                    for s in witness.valid_shifts:
                        fiber = _fiber_paths(witness.word, s)
                        assert fiber == (path_from_sdw(witness.word, s),)

    def test_two_shifts_share_canonical(self, big_word):
        a = path_from_sdw(big_word, 2)
        b = path_from_sdw(big_word, 3)
        assert canonical_rep(a) == canonical_rep(b)


class TestFiberPaths:
    def test_sixteen_path_fiber(self):
        word = parse_perm(FIBER_WORD)
        fiber = _fiber_paths(word, FIBER_SHIFT)
        assert len(fiber) == 16
        assert len(set(fiber)) == 16


class TestClasses:
    # the word bijection, member counts and area = revmaj are checked by the
    # cancellation-path suite, cycle sizes and dinv-0 canonicals by
    # dinv-ladder (both run to n = 5 in test_verify.py)
    def test_smallest(self):
        assert classes(1) == Counter({parse_path("NE:1:"): 1})

    def test_all_decorated_but_one(self):
        got = {c: count for c, count in classes(3).items() if len(c.decorations) == 2}
        assert sorted(area(c) for c in got) == [0, 1, 2]
        assert set(got.values()) == {1}

    def test_shard_out_of_range_raises(self):
        with pytest.raises(ValueError, match="shard must be in 0..3, got 7"):
            classes(4, 7)
