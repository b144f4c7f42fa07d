"""Exhaustive generators and the signed sums built on top of them."""

from __future__ import annotations

import itertools

import pytest

from pathlab.enumeration import (
    D_brute,
    PathFamily,
    S_brute,
    column_sizes,
    fibers_by_sdw,
    generate,
    qt_enumerator,
    schedule_one_paths,
    standard_labelings,
    step_words,
)
from pathlab.paths import area, dinv, validate
from pathlab.poly import QTPoly, TPoly
from pathlab.schedule import diagonal_word, schedule_numbers


class TestStepWords:
    def test_square_words_end_east(self):
        for w in step_words(3, "square"):
            assert w.endswith("E") and len(w) == 6
            assert w.count("N") == w.count("E") == 3

    def test_dyck_words_stay_weakly_above(self):
        for w in step_words(3, "dyck"):
            h = 0
            for c in w:
                h += 1 if c == "N" else -1
                assert h >= 0

    def test_lexicographic_and_duplicate_free(self):
        words = list(step_words(4, "square"))
        assert words == sorted(words) and len(words) == len(set(words))

    def test_column_sizes(self):
        # sizes of the maximal blocks of consecutive north steps
        assert column_sizes("NNEENE") == (2, 1)
        assert column_sizes("ENNE") == (2,)


class TestGenerate:
    def test_counts_match_naive_product(self):
        # every path = step word x standard labeling x decoration subset
        for n in range(1, 5):
            total = sum(
                len(list(generate(PathFamily(n, k, "square")))) for k in range(n)
            )
            naive = 0
            for w in step_words(n, "square"):
                for labels in standard_labelings(w):
                    from pathlab.paths import contractible_valleys

                    base = validate(w, labels)
                    v = len(contractible_valleys(base))
                    naive += sum(
                        1
                        for r in range(n)
                        for _ in itertools.combinations(range(v), r)
                    )
            assert total == naive

    def test_everything_validates_and_is_unique(self):
        paths = list(generate(PathFamily(4, 1, "square")))
        assert len(paths) == len(set(paths))
        for p in paths:
            validate(p.steps, p.labels, p.decorations)
            assert len(p.decorations) == 1

    def test_deterministic(self):
        fam = PathFamily(4, 2, "dyck")
        assert list(generate(fam)) == list(generate(fam))

    def test_family_validation(self):
        with pytest.raises(ValueError):
            PathFamily(0, 0, "square")
        with pytest.raises(ValueError):
            PathFamily(3, 3, "square")
        with pytest.raises(ValueError):
            PathFamily(3, 0, "banana")


class TestSignedSums:
    def test_brute_sums_match_naive(self):
        for n in range(1, 5):
            for k in range(n):
                for fn, kind in ((S_brute, "square"), (D_brute, "dyck")):
                    acc = {}
                    for p in generate(PathFamily(n, k, kind)):
                        a = area(p)
                        acc[a] = acc.get(a, 0) + (-1) ** dinv(p)
                    coeffs = [0] * (max(acc, default=-1) + 1)
                    for d, c in acc.items():
                        coeffs[d] = c
                    assert fn(n, k) == TPoly(coeffs)

    def test_qt_enumerator_frozen_value(self):
        assert qt_enumerator(PathFamily(2, 0, "square")) == QTPoly(
            {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
        )

    def test_qt_enumerator_specializes_to_brute(self):
        for n in range(1, 5):
            for k in range(n):
                assert qt_enumerator(PathFamily(n, k, "square")).eval_q(-1) == S_brute(n, k)
                assert qt_enumerator(PathFamily(n, k, "dyck")).eval_q(-1) == D_brute(n, k)


class TestFibers:
    def test_fiber_sizes_sum_to_family(self):
        fam = PathFamily(4, 1, "square")
        fibers = fibers_by_sdw(fam)
        assert sum(count for count, _ in fibers.values()) == len(
            list(generate(fam))
        )

    def test_fiber_polynomials_sum_to_enumerator(self):
        fam = PathFamily(4, 2, "square")
        total = QTPoly()
        for _, qt in fibers_by_sdw(fam).values():
            total = total + qt
        assert total == qt_enumerator(fam)


class TestScheduleOnePaths:
    def test_matches_naive_filter(self):
        for n in range(1, 5):
            fast = set(schedule_one_paths(n))
            naive = {
                p
                for k in range(n)
                for p in generate(PathFamily(n, k, "square"))
                if schedule_numbers(diagonal_word(p)) == (1,) * n
            }
            assert fast == naive

    def test_known_counts(self):
        assert sum(1 for _ in schedule_one_paths(3)) == 16
        assert sum(1 for _ in schedule_one_paths(4)) == 80
