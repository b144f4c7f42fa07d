"""Exhaustive generators and the signed sums built on top of them."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from collections import Counter

import pytest

from pathlab import enumeration
from pathlab.adr import adr_decorations
from pathlab.bridge import path_from_sdw
from pathlab.enumeration import (
    KINDS,
    PathFamily,
    _composition_columns,
    _decoration_sets,
    _fibers_by_paths,
    _label_slices,
    _presences,
    _step_profile,
    _valleys,
    bare_path_count,
    column_sizes,
    fibers_by_sdw,
    generate,
    qt_sums,
    read_pair_count,
    schedule_one_paths,
    signed_sums,
    step_groups,
    step_words,
)
from pathlab.paths import (
    area,
    area_word,
    attack_pairs,
    contractible_valleys,
    dinv,
    shift,
    validate,
)
from pathlab.poly import QTPoly, TPoly
from pathlab.schedule import decreasing_runs, diagonal_word, schedule_numbers

from conftest import profiled_calls


def _labelings(sizes):
    """The standard labelings of a column composition, as tuples, read off
    its byte columns as generate reads them."""
    return list(zip(*_composition_columns(sizes)))


class TestStepWords:
    # every property for n <= 8
    def test_square_words_end_east(self):
        for n in range(1, 9):
            for w in step_words(n, "square"):
                assert w.endswith("E") and len(w) == 2 * n
                assert w.count("N") == w.count("E") == n

    def test_dyck_words_stay_weakly_above(self):
        for n in range(1, 9):
            for w in step_words(n, "dyck"):
                assert w.endswith("E") and w.count("N") == w.count("E") == n
                h = 0
                for c in w:
                    h += 1 if c == "N" else -1
                    assert h >= 0

    def test_lexicographic_and_duplicate_free(self):
        for n in range(1, 9):
            for kind in KINDS:
                words = list(step_words(n, kind))
                assert words == sorted(words) and len(words) == len(set(words))

    def test_counts(self):
        # C(2n - 1, n) square words (the last step is east) and Catalan(n) Dyck words
        for n in range(1, 9):
            assert sum(1 for _ in step_words(n, "square")) == math.comb(2 * n - 1, n)
            assert sum(1 for _ in step_words(n, "dyck")) == math.comb(2 * n, n) // (n + 1)
        assert list(step_words(0)) == list(step_words(-1, "dyck")) == []

    def test_column_sizes(self):
        # sizes of the maximal blocks of consecutive north steps
        assert column_sizes("NNEENE") == (2, 1)
        assert column_sizes("ENNE") == (2,)

    def test_labelings_are_the_column_increasing_permutations(self):
        # checked for every step word of both kinds with n <= 5
        for n in range(1, 6):
            perms = list(itertools.permutations(range(1, n + 1)))
            for kind in KINDS:
                for w in step_words(n, kind):
                    labelings = _labelings(column_sizes(w))
                    blocks = list(
                        itertools.accumulate(column_sizes(w), initial=0)
                    )
                    expected = [
                        p
                        for p in perms
                        if all(
                            list(p[lo:hi]) == sorted(p[lo:hi])
                            for lo, hi in zip(blocks, blocks[1:])
                        )
                    ]
                    assert labelings == expected

    def test_bare_path_count(self):
        # n^n square and (n + 1)^(n - 1) Dyck pairs, checked for n <= 5
        for n in range(1, 6):
            for kind in KINDS:
                family = PathFamily(n, 0, kind)
                assert sum(1 for _ in generate(family)) == bare_path_count(n, kind)


class TestLabelSlices:
    def test_bit_l_compares_labeling_l(self):
        """For every column composition with n <= 5, bit l of less[x, y] is
        set exactly when the l-th labeling has w_x < w_y, and full has one
        bit per labeling."""
        for n in range(1, 6):
            compositions = {column_sizes(w) for w in step_words(n)}
            assert len(compositions) == 2 ** (n - 1)
            for sizes in compositions:
                labelings = _labelings(sizes)
                full, less = _label_slices(_composition_columns(sizes))
                assert full == (1 << len(labelings)) - 1
                assert sorted(less) == list(itertools.combinations(range(1, n + 1), 2))
                for (x, y), slice_ in less.items():
                    assert slice_ == sum(
                        1 << l for l, w in enumerate(labelings) if w[x - 1] < w[y - 1]
                    ), (sizes, x, y)

    def test_builds_in_little_more_than_it_keeps(self):
        # the 40,320 labelings of 1^8 keep 0.15 MiB of slices; the build
        # peaks at 0.44 MiB, against 0.55 MiB when every packed column lived
        # until the last slice was built, and 0.86 MiB when every byte
        # column did
        tracemalloc.start()
        try:
            _label_slices(_composition_columns((1,) * 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_labels_must_fit_four_bits(self):
        # raised before the walk, which meets 3*10^8 square step words at n = 16
        for shard, kind in ((None, "square"), (3, "square"), (None, "dyck")):
            with pytest.raises(ValueError, match="up to n = 15"):
                signed_sums(16, kind, shard)


def _decoration_sets_by_subsets(choices, full, flips):
    """Every set of choices whose slices AND with ``full`` to a nonzero
    value, with that AND and the XOR of ``flips`` and its flips."""
    sets = []
    for r in range(len(choices) + 1):
        for combo in itertools.combinations(choices, r):
            present, flipped = full, flips
            for _, on, flip in combo:
                present &= on
                flipped ^= flip
            if present:
                sets.append((tuple(step for step, _, _ in combo), present, flipped))
    return sets


class TestDecorationSets:
    def test_matches_every_subset(self):
        """For every step word with n <= 5, the depth-first walk meets
        exactly the subsets of its valleys and ties present on some
        labeling, with their present slice and the XOR of the starting
        flips and theirs, from no flips and from some."""
        for n in range(1, 6):
            for columns, profiles in step_groups(n, "square", None):
                full, less = _label_slices(columns)
                for profile in profiles:
                    presences = _presences(profile, full, less)
                    choices = [(i, on, full >> i) for i, on in presences]
                    for flips in (0, full // 3):
                        walked = list(_decoration_sets(choices, full, flips))
                        oracle = _decoration_sets_by_subsets(choices, full, flips)
                        assert sorted(walked) == sorted(oracle), (profile.steps, flips)

    def test_no_set_passes_n_minus_one(self):
        """Every step word with n <= 9 has at most n - 1 valleys and ties,
        so no decoration set passes the largest k; some word has n - 1."""
        for n in range(1, 10):
            most = max(len(profile.decorable) for profile in map(_step_profile, step_words(n)))
            assert most == n - 1, n


class TestSliceGroups:
    def test_each_walk_builds_each_composition_once(self):
        """At n = 6, for every shard, the schedule-one stream, a fresh
        signed-sum walk and the fiber walk each build every composition's
        columns once, in step_groups alone; the slices are packed from
        those columns, and the stream names its hits from them."""
        n = 6
        codes = {_composition_columns.__code__}

        for j in range(n):
            compositions = Counter(
                {column_sizes(w) for w in step_words(n) if _step_profile(w).area % n == j}
            )
            enumeration._SIGNED_SUMS.clear()
            walks = {
                "stream": lambda: list(schedule_one_paths(n, j)),
                "signed sums": lambda: signed_sums(n, "square", j),
                "fibers": lambda: fibers_by_sdw(n, "square", j),
            }
            for name, walk in walks.items():
                _, calls = profiled_calls(codes, walk)
                tops = [c.locals["sizes"] for c in calls if c.caller is step_groups.__code__]
                assert Counter(tops) == compositions, (name, j)
                assert {c.caller for c in calls} == {
                    step_groups.__code__,
                    _composition_columns.__code__,
                }, (name, j)


def _attack_pairs(profile, w):
    """Attack pairs (i, j) of the undecorated path whose step i carries label
    w[i] (w[0] is a placeholder), ordered by i, then j, read off the
    profile's candidates."""
    return [(i, j) for i, j, lo, hi in profile.candidates if w[lo] < w[hi]]


class TestStepProfile:
    def test_matches_definitional_forms(self):
        """For every (steps, labels) pair of both kinds with n <= 5, the
        profile gives the area, shift, attack pairs (so the count per left
        index) and contractible valleys of paths.py."""
        for n in range(1, 6):
            for kind in KINDS:
                for w in step_words(n, kind):
                    profile = _step_profile(w)
                    for labels in _labelings(column_sizes(w)):
                        base = validate(w, labels)
                        assert profile.area == area(base)
                        assert profile.shift == shift(base)
                        assert profile.bonus + len(attack_pairs(base)) == dinv(base)
                        assert _attack_pairs(profile, (0,) + labels) == sorted(
                            (p.i, p.j) for p in attack_pairs(base)
                        )
                        assert _valleys(profile, labels) == sorted(
                            contractible_valleys(base)
                        )

    def test_presences_are_the_valleys_of_each_labeling(self):
        """For every step word of both kinds with n <= 5, the presences are
        increasing, and bit l of a step's slice is set exactly when the step
        is a contractible valley of the path with labeling l; no other step
        is one."""
        for n in range(1, 6):
            for kind in KINDS:
                for columns, profiles in step_groups(n, kind, None):
                    labelings = list(zip(*columns))
                    full, less = _label_slices(columns)
                    for profile in profiles:
                        presences = _presences(profile, full, less)
                        order = [i for i, _ in presences]
                        assert order == sorted(set(order))
                        for l, labels in enumerate(labelings):
                            present = {i for i, on in presences if on >> l & 1}
                            base = validate(profile.steps, labels)
                            assert present == contractible_valleys(base), (base, l)


class TestGenerate:
    def test_counts_match_naive_product(self):
        # every path = step word x standard labeling x decoration subset
        for n in range(1, 5):
            total = sum(
                len(list(generate(PathFamily(n, k, "square")))) for k in range(n)
            )
            naive = 0
            for w in step_words(n, "square"):
                for labels in _labelings(column_sizes(w)):
                    base = validate(w, labels)
                    v = len(contractible_valleys(base))
                    naive += sum(
                        1
                        for r in range(n)
                        for _ in itertools.combinations(range(v), r)
                    )
            assert total == naive

    def test_skips_words_with_fewer_than_k_valleys_and_ties(self):
        """At k = 5 of size 6, the labelings read are exactly those of the
        step words with 5 valleys and ties."""
        family = PathFamily(6, 5)
        wanted = sum(
            len(_labelings(column_sizes(w)))
            for w in step_words(6)
            if len(_step_profile(w).decorable) >= family.k
        )
        _, calls = profiled_calls({_valleys.__code__}, lambda: list(generate(family)))
        assert len(calls) == wanted

    def test_read_pair_count_is_the_pairs_read(self):
        """For every family of both kinds with n <= 5, read_pair_count is
        the number of labelings generate reads, and bare_path_count at
        k = 0."""
        for n in range(1, 6):
            for kind in KINDS:
                for k in range(n):
                    family = PathFamily(n, k, kind)
                    _, calls = profiled_calls({_valleys.__code__}, lambda: list(generate(family)))
                    assert read_pair_count(family) == len(calls), family
                assert read_pair_count(PathFamily(n, 0, kind)) == bare_path_count(n, kind)

    def test_keeps_columns_not_tuples(self):
        # walking the 46,656 (steps, labels) pairs of size 6, with each
        # composition's labelings kept as byte columns, peaks at about
        # 0.3 MiB; 0.71 MiB when they were kept as lists of tuples
        tracemalloc.start()
        try:
            for _ in generate(PathFamily(6, 5)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

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


def _naive_signed_sum(paths) -> TPoly:
    """Sum of (-1)^dinv t^area over the paths, with dinv from paths.py."""
    acc = {}
    for p in paths:
        a = area(p)
        acc[a] = acc.get(a, 0) + (-1) ** dinv(p)
    coeffs = [0] * (max(acc, default=-1) + 1)
    for d, c in acc.items():
        coeffs[d] = c
    return TPoly(coeffs)


class TestSignedSums:
    def test_brute_sums_match_naive(self):
        """The signed sums equal (-1)^dinv t^area summed over generate, with
        dinv from paths.py, for every k and n <= 5."""
        for n in range(1, 6):
            for kind in KINDS:
                naive = tuple(
                    _naive_signed_sum(generate(PathFamily(n, k, kind))) for k in range(n)
                )
                assert signed_sums(n, kind) == naive, (n, kind)

    def test_brute_shards_match_naive(self):
        """Shard j of the square sums is that sum over the paths with
        area = j mod n, for every n <= 5, k and j."""
        for n in range(1, 6):
            for k in range(n):
                family = list(generate(PathFamily(n, k, "square")))
                for j in range(n):
                    shard = (p for p in family if area(p) % n == j)
                    assert signed_sums(n, "square", j)[k] == _naive_signed_sum(shard), (n, k, j)

    def test_square_walk_yields_the_dyck_sums(self):
        """For every n <= 7, the Dyck sums read after the square ones equal a
        Dyck walk of its own; S then D profiles the C(2n - 1, n - 1) square
        step words once, and D alone only the Catalan(n) Dyck ones."""
        codes = {_step_profile.__code__}
        for n in range(1, 8):
            enumeration._SIGNED_SUMS.clear()
            alone, calls = profiled_calls(codes, signed_sums, n, "dyck")
            assert len(calls) == math.comb(2 * n, n) // (n + 1)
            enumeration._SIGNED_SUMS.clear()
            after, calls = profiled_calls(
                codes, lambda: (signed_sums(n), signed_sums(n, "dyck"))
            )
            assert len(calls) == math.comb(2 * n - 1, n - 1)
            assert after[1] == alone, n

    def test_square_shard_walk_yields_the_dyck_shard(self):
        """For every n <= 6 and shard j, the Dyck sums of shard j read after
        the square ones walk nothing and equal a Dyck walk of that shard."""
        codes = {_step_profile.__code__}
        for n in range(1, 7):
            for j in range(n):
                enumeration._SIGNED_SUMS.clear()
                alone = signed_sums(n, "dyck", j)
                signed_sums(n, "square", j)
                after, calls = profiled_calls(codes, signed_sums, n, "dyck", j)
                assert calls == [] and after == alone, (n, j)

    def test_memo_holds_the_last_walk(self):
        """Each walk replaces the memo with its own sums: a square walk's
        square and Dyck sums, whole or of one shard, or a Dyck walk's alone."""
        signed_sums(4)
        assert set(enumeration._SIGNED_SUMS) == {(4, "square", None), (4, "dyck", None)}
        signed_sums(5, "square", 2)
        assert set(enumeration._SIGNED_SUMS) == {(5, "square", 2), (5, "dyck", 2)}
        signed_sums(3, "dyck")
        assert set(enumeration._SIGNED_SUMS) == {(3, "dyck", None)}

    @pytest.mark.parametrize("shard", [4, -1])
    def test_shard_out_of_range_raises(self, shard):
        # and keeps no empty sums for it
        enumeration._SIGNED_SUMS.clear()
        with pytest.raises(ValueError, match=f"shard must be in 0..3, got {shard}"):
            signed_sums(4, "square", shard)
        assert enumeration._SIGNED_SUMS == {}

    def test_holds_one_composition_at_a_time(self):
        # the walk holds one composition's slices at a time, and each byte
        # column goes as it is packed: a peak of about 0.9 MiB, against
        # 1.2 MiB when the slices were packed from a copy of the columns,
        # and 3.7 MiB when every composition's slices were kept
        enumeration._SIGNED_SUMS.clear()
        tracemalloc.start()
        try:
            signed_sums(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_qt_sums_frozen_value(self):
        assert qt_sums(2)[0] == QTPoly({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})

    def test_qt_sums_specialize_to_brute(self):
        """At q = -1 the (q, t)-enumerator is the brute signed sum, for every
        k, square and Dyck, n <= 6."""
        for n in range(1, 7):
            for kind in KINDS:
                at_minus_one = tuple(qt.eval_q(-1) for qt in qt_sums(n, kind))
                assert at_minus_one == signed_sums(n, kind), (n, kind)


def _families_up_to_four():
    for n in range(1, 5):
        for k in range(n):
            for kind in KINDS:
                yield PathFamily(n, k, kind)


class TestFibers:
    def test_fibers_group_the_family(self):
        for fam in _families_up_to_four():
            grouped: dict = {}
            for p in generate(fam):
                qt = QTPoly.monomial(dinv(p), area(p))
                sdw = diagonal_word(p)
                grouped[sdw] = grouped.get(sdw, QTPoly()) + qt
            assert fibers_by_sdw(fam.n, fam.kind)[fam.k] == grouped, fam

    def test_fiber_sizes_sum_to_family(self):
        for fam in _families_up_to_four():
            sizes = [qt.eval_q(1)(1) for qt in fibers_by_sdw(fam.n, fam.kind)[fam.k].values()]
            assert sum(sizes) == sum(1 for _ in generate(fam)), fam

    def test_walk_matches_the_path_oracle(self):
        """For every k, square n <= 5 and Dyck n <= 6, the walk's fibers are
        those grouped path by path, and qt_sums are their sums."""
        for kind, top in (("square", 5), ("dyck", 6)):
            for n in range(1, top + 1):
                oracle = tuple(_fibers_by_paths(PathFamily(n, k, kind)) for k in range(n))
                assert fibers_by_sdw(n, kind) == oracle, (n, kind)
                totals = tuple(sum(fibers.values(), QTPoly()) for fibers in oracle)
                assert qt_sums(n, kind) == totals, (n, kind)

    def test_one_walk_gives_every_k(self):
        # fibers_by_sdw walks the step words once for all k: Catalan(5)
        # profiles for the Dyck family of size 5
        fibers, calls = profiled_calls({_step_profile.__code__}, fibers_by_sdw, 5, "dyck")
        assert len(fibers) == 5 and len(calls) == 42

    def test_shards_split_the_fibers(self):
        """Shard j holds the fibers whose paths have area j mod n, each
        whole, and the shards together are the whole walk's fibers; at
        every n <= 5 each shard is the whole walk's fibers of that area."""
        for n in range(1, 6):
            whole = fibers_by_sdw(n)
            for j in range(n):
                part = fibers_by_sdw(n, "square", j)
                for k in range(n):
                    assert part[k] == {
                        sdw: qt
                        for sdw, qt in whole[k].items()
                        if next(iter(qt.terms))[1] % n == j
                    }, (n, j, k)
                    assert all(dt % n == j for qt in part[k].values() for _, dt in qt.terms)

    @pytest.mark.parametrize("shard", [5, -1])
    def test_shard_out_of_range_raises(self, shard):
        with pytest.raises(ValueError, match=f"shard must be in 0..4, got {shard}"):
            fibers_by_sdw(5, "square", shard)


class TestScheduleOnePaths:
    def test_matches_naive_filter(self):
        """Equal, as sets, to the schedule-one members of generate for
        n <= 5, with no path yielded twice."""
        for n in range(1, 6):
            fast = list(schedule_one_paths(n))
            assert len(fast) == len(set(fast))
            naive = {
                p
                for k in range(n)
                for p in generate(PathFamily(n, k, "square"))
                if schedule_numbers(diagonal_word(p)) == (1,) * n
            }
            assert set(fast) == naive

    def test_matches_every_adr_decoration_at_six(self):
        """At n = 6, past the naive filters, the stream is as a set the path
        of every all-ones shift of every ADR decoration of every
        permutation, and each shard is the whole stream's paths of that
        shard, as a multiset."""
        n = 6
        whole = list(schedule_one_paths(n))
        assert set(whole) == {
            path_from_sdw(witness.word, s)
            for values in itertools.permutations(range(1, n + 1))
            for witness in adr_decorations(values)
            for s in witness.valid_shifts
        }
        for j in range(n):
            assert Counter(schedule_one_paths(n, j)) == Counter(
                p for p in whole if area(p) % n == j
            )

    def test_first_path_comes_before_the_walk_ends(self):
        # each hit is yielded where the walk finds it, so the first path
        # comes from the first group with a hit, long before the last of
        # the 64 compositions of size 7 is built
        compositions = {column_sizes(w) for w in step_words(7)}
        first, calls = profiled_calls({_label_slices.__code__}, next, schedule_one_paths(7))
        assert schedule_numbers(diagonal_word(first)) == (1,) * 7
        assert len(calls) < len(compositions)

    def test_holds_one_composition_at_a_time(self):
        # counting the 26,880 paths of size 7 peaks at about 0.3 MiB, one
        # composition's slices and columns; 5.3 MiB when every hit was kept
        # to be sorted before the first was yielded
        tracemalloc.start()
        try:
            assert sum(1 for _ in schedule_one_paths(7)) == 26880
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_shard_out_of_range_raises(self):
        with pytest.raises(ValueError, match="shard must be in 0..3, got 9"):
            next(schedule_one_paths(4, 9))

    def test_labels_must_fit_four_bits(self):
        with pytest.raises(ValueError, match="brute-force walks go up to n = 15, got n = 16"):
            next(schedule_one_paths(16))

    def test_known_counts(self):
        assert sum(1 for _ in schedule_one_paths(3)) == 16
        assert sum(1 for _ in schedule_one_paths(4)) == 80
        assert sum(1 for _ in schedule_one_paths(5)) == 480
        by_shard = [sum(1 for _ in schedule_one_paths(6, j)) for j in range(6)]
        assert by_shard == [554, 554, 564, 570, 562, 556]
        assert sum(by_shard) == 3360

    def test_each_run_is_one_diagonal(self):
        """The decreasing runs of a bare path's diagonal word are its occupied
        diagonals' labels in decreasing order, lowest diagonal first; checked
        for n <= 5."""
        for n in range(1, 6):
            for p in generate(PathFamily(n, 0, "square")):
                by_diagonal = {}
                for label, d in zip(p.labels, area_word(p)):
                    by_diagonal.setdefault(d, []).append(label)
                expected = tuple(
                    tuple(sorted(by_diagonal[d], reverse=True)) for d in sorted(by_diagonal)
                )
                assert decreasing_runs(diagonal_word(p).word) == expected

    def test_at_most_one_undecorated_step_on_diagonal_zero(self):
        """Checked over the naive schedule-one set for n <= 5."""
        for n in range(1, 6):
            for k in range(n):
                for p in generate(PathFamily(n, k, "square")):
                    if schedule_numbers(diagonal_word(p)) != (1,) * n:
                        continue
                    zero = [
                        i
                        for i, d in enumerate(area_word(p), start=1)
                        if d == 0 and i not in p.decorations
                    ]
                    assert len(zero) <= 1
