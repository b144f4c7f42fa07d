"""Path layer: statistics, validation, text format."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathlab import paths
from pathlab.enumeration import KINDS, PathFamily, generate, step_words
from pathlab.paths import (
    AttackPair,
    ColumnOrderViolation,
    DecoratedLabeledPath,
    DecorationNotContractible,
    NotAPath,
    area,
    area_word,
    attack_pairs,
    contractible_valleys,
    dinv,
    format_path,
    is_dyck,
    parse_path,
    shift,
    steps_area_word,
    validate,
)
from pathlab.schedule import diagonal_word

from conftest import profiled_calls, random_square_path

SMALL_CORPUS = tuple(
    p
    for n in range(1, 5)
    for k in range(n)
    for p in generate(PathFamily(n, k, "square"))
)


def _attack_pairs_by_definition(p) -> frozenset[AttackPair]:
    """Every ordered pair of north steps tried against the attack rules,
    the oracle of :func:`attack_pairs`, which pairs steps diagonal by
    diagonal."""
    a, w, dv = area_word(p), p.labels, p.decorations
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


def _paths_with_any_labels(max_n: int):
    """Every square path with n <= max_n, labels from 1..n increasing up
    each column (so repeated across columns) and every decoration set of
    at most n - 1 of its contractible valleys."""
    for n in range(1, max_n + 1):
        for steps in step_words(n):
            for labels in itertools.product(range(1, n + 1), repeat=n):
                try:
                    bare = validate(steps, labels)
                except ColumnOrderViolation:
                    continue
                valleys = sorted(contractible_valleys(bare))
                for k in range(min(len(valleys), n - 1) + 1):
                    for dv in itertools.combinations(valleys, k):
                        yield validate(steps, labels, dv)


def dinv_by_listing(p) -> int:
    """dinv from the attack-pair listing, the oracle of the counting kernel."""
    bonus = sum(1 for a in area_word(p) if a < 0)
    return len(attack_pairs(p)) + bonus - len(p.decorations)


class TestSmallPathStatistics:
    def test_decorated_dyck_example(self, small_path):
        assert area_word(small_path) == (0, 1, 0)
        assert shift(small_path) == 0
        assert area(small_path) == 1
        assert dinv(small_path) == 0
        assert contractible_valleys(small_path) == frozenset({3})
        assert attack_pairs(small_path) == frozenset({AttackPair(1, 3, "primary")})
        assert is_dyck(small_path)

    def test_trivial_path(self):
        p = parse_path("NE:1:")
        assert area_word(p) == (0,)
        assert shift(p) == area(p) == dinv(p) == 0
        assert not contractible_valleys(p)
        assert not attack_pairs(p)

    def test_negative_diagonals_shift(self):
        p = parse_path("ENNE:1,2:")
        assert area_word(p) == (-1, 0)
        assert shift(p) == 1
        assert area(p) == 1

    def test_first_step_decoration_needs_negative_start(self):
        # a path starting with N has a_1 = 0, so position 1 is not a valley
        with pytest.raises(DecorationNotContractible):
            validate("NENE", (1, 2), {1})
        # starting east of the diagonal, position 1 is contractible
        assert validate("ENNE", (1, 2), {1}).decorations == frozenset({1})


class TestValidation:
    def test_rejects_bad_step_letters(self):
        with pytest.raises(NotAPath):
            validate("NX", (1,))

    def test_rejects_wrong_length(self):
        with pytest.raises(NotAPath):
            validate("NNE", (1, 2))

    def test_rejects_path_not_ending_east(self):
        with pytest.raises(NotAPath):
            validate("NEEN", (1, 2))

    def test_rejects_column_order_violation(self):
        with pytest.raises(ColumnOrderViolation):
            validate("NNEE", (2, 1))

    def test_rejects_noncontractible_decoration(self):
        with pytest.raises(DecorationNotContractible):
            validate("NNEE", (1, 2), {2})

    def test_format_parse_round_trip(self):
        for p in SMALL_CORPUS[:200]:
            assert parse_path(format_path(p)) == p


class TestStatisticProperties:
    @given(st.sampled_from(SMALL_CORPUS))
    def test_area_is_shifted_area_word_sum(self, p):
        s = shift(p)
        assert area(p) == sum(a + s for a in area_word(p))
        assert s == max(0, -min(area_word(p)))

    @given(st.sampled_from(SMALL_CORPUS))
    def test_dinv_is_nonnegative(self, p):
        assert dinv(p) >= 0

    @given(st.sampled_from(SMALL_CORPUS))
    def test_decorations_are_valleys(self, p):
        assert p.decorations <= contractible_valleys(p)

    @given(st.sampled_from(SMALL_CORPUS))
    def test_attack_pairs_never_start_on_decorated_step(self, p):
        assert all(pair.i not in p.decorations for pair in attack_pairs(p))

    @given(st.sampled_from(SMALL_CORPUS))
    def test_dyck_paths_have_shift_zero(self, p):
        if is_dyck(p):
            assert shift(p) == 0 and min(area_word(p)) >= 0


class TestDinvCounting:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_listing_on_every_small_path(self, kind):
        for n in range(1, 6):
            for k in range(n):
                for p in generate(PathFamily(n, k, kind)):
                    assert dinv(p) == dinv_by_listing(p), p

    def test_matches_listing_on_random_large_paths(self):
        rng = random.Random(20240)
        corpus = [random_square_path(rng, 10 + i % 11) for i in range(2000)]
        assert sum(1 for p in corpus if p.decorations) > 1000
        for p in corpus:
            assert dinv(p) == dinv_by_listing(p), p

    def test_matches_listing_with_repeated_labels(self):
        # labels need only increase up a column, so one label can sit on
        # several steps of a diagonal, and each of them counts
        checked = repeated = 0
        for p in _paths_with_any_labels(4):
            assert dinv(p) == dinv_by_listing(p), p
            checked += 1
            repeated += len(set(p.labels)) < p.n
        assert repeated > checked // 2

    def test_matches_listing_on_large_paths_with_repeated_labels(self):
        # each column draws its labels from 1..5 (or its height), so a label
        # sits on several steps of one diagonal far more often than at n <= 4
        rng = random.Random(20241)
        corpus = [random_square_path(rng, 10 + i % 11, top=5) for i in range(2000)]
        assert sum(1 for p in corpus if len(set(p.labels)) < p.n) == len(corpus)
        assert sum(1 for p in corpus if p.decorations) > 1000
        for p in corpus:
            assert dinv(p) == dinv_by_listing(p), p

    def test_counts_without_listing(self):
        # one pass over the step word: no pair listing and no area word
        values, calls = profiled_calls(
            {attack_pairs.__code__, area_word.__code__},
            lambda: [dinv(p) for p in SMALL_CORPUS],
        )
        counts = Counter(call.code for call in calls)
        assert len(values) == len(SMALL_CORPUS)
        assert counts[attack_pairs.__code__] == 0
        assert counts[area_word.__code__] == 0


class TestAttackPairs:
    def test_matches_definition_on_every_small_path(self):
        # repeated labels and every decoration set included
        checked = repeated = decorated = 0
        for p in _paths_with_any_labels(4):
            assert attack_pairs(p) == _attack_pairs_by_definition(p), p
            checked += 1
            repeated += len(set(p.labels)) < p.n
            decorated += bool(p.decorations)
        assert repeated > checked // 2 and decorated > checked // 4

    def test_matches_definition_on_random_large_paths(self):
        rng = random.Random(20242)
        corpus = [random_square_path(rng, 10 + i % 11) for i in range(1000)]
        corpus += [random_square_path(rng, 10 + i % 11, top=5) for i in range(1000)]
        assert sum(1 for p in corpus if p.decorations) > 1000
        for p in corpus:
            assert attack_pairs(p) == _attack_pairs_by_definition(p), p

    def test_pairs_are_attack_pair_records(self, small_path):
        (pair,) = attack_pairs(small_path)
        assert type(pair) is AttackPair and (pair.i, pair.j, pair.kind) == (1, 3, "primary")


class TestAreaWordMemo:
    def test_one_query_builds_the_area_word_once(self):
        # inspect's statistics of one path share one area word; the path is
        # built unvalidated at a size no other test uses, so no earlier call
        # has read its word
        norths = set(random.Random(4620).sample(range(79), 40))
        steps = "".join("N" if i in norths else "E" for i in range(79)) + "E"
        p = DecoratedLabeledPath(steps, tuple(range(1, 41)))

        def query():
            return area(p), shift(p), contractible_valleys(p), attack_pairs(p), diagonal_word(p)

        _, calls = profiled_calls({steps_area_word.__code__}, query)
        assert len(calls) == 1

    def test_words_depend_on_the_step_word_alone(self):
        # distinct paths that share a step word, so differ in labels or
        # decorations, read equal words, the word of the bare step word
        by_steps = {}
        for p in SMALL_CORPUS:
            by_steps.setdefault(p.steps, []).append(p)
        assert len(by_steps) < len(SMALL_CORPUS) // 10
        for steps, group in by_steps.items():
            assert {area_word(p) for p in group} == {steps_area_word(steps)}

    def test_memo_builds_through_the_module_name(self, monkeypatch):
        # perfbench's tracer counts steps_area_word by rebinding the name;
        # a memo holding the function itself would hide its builds
        built = []

        def counting(steps):
            built.append(steps)
            return steps_area_word(steps)

        monkeypatch.setattr(paths, "steps_area_word", counting)
        paths._area_words.cache_clear()
        p = parse_path("ENNENE:1,2,3:")
        assert area_word(p) == area_word(p) == (-1, 0, 0)
        assert built == [p.steps]

    def test_memo_is_bounded(self):
        maxsize = paths._area_words.cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize <= 1024
        rng = random.Random(4621)
        for _ in range(maxsize + 10):
            area_word(random_square_path(rng, 25))
        assert paths._area_words.cache_info().currsize == maxsize


class TestTupleSemantics:
    def test_decorations_default_to_the_empty_frozenset(self):
        p = DecoratedLabeledPath("NE", (1,))
        assert p.decorations == frozenset() and type(p.decorations) is frozenset
        assert p == parse_path("NE:1:") and p.n == 1 and str(p) == "NE:1:"

    def test_equal_paths_hash_equal(self):
        for p in SMALL_CORPUS[:500]:
            copy = DecoratedLabeledPath(p.steps, tuple(p.labels), frozenset(p.decorations))
            assert copy == p and hash(copy) == hash(p)
            assert copy == (p.steps, p.labels, p.decorations)

    def test_paths_key_dicts_and_counters(self):
        doubled = [parse_path(format_path(p)) for p in SMALL_CORPUS] + list(SMALL_CORPUS)
        counts = Counter(doubled)
        assert len(counts) == len(SMALL_CORPUS)
        assert set(counts.values()) == {2}
        index = {p: i for i, p in enumerate(SMALL_CORPUS)}
        assert [index[parse_path(format_path(p))] for p in SMALL_CORPUS] == list(
            range(len(SMALL_CORPUS))
        )
