"""Cutting cycles: the cut-and-swap map, canonical representatives, ladders."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathlab import cutting
from pathlab.cutting import (
    LadderViolation,
    ShapeViolation,
    Stretches,
    breaking_step,
    canonical_rep,
    cutting_cycle,
    cycle_dinvs,
    geometric_order,
    ordered_cycle,
    psi,
    sched_one_members,
    shape_stretches,
)
from pathlab.enumeration import PathFamily, generate, schedule_one_paths
from pathlab.paths import (
    DecoratedLabeledPath,
    PathError,
    area,
    area_word,
    contractible_valleys,
    dinv,
    format_path,
    parse_path,
    validate,
)
from pathlab.schedule import diagonal_word

from conftest import BIG_SCHED_ONE, profiled_calls, random_square_path


def _small_paths():
    """Every square path with n <= 5, for every k."""
    for n in range(1, 6):
        for k in range(n):
            yield from generate(PathFamily(n, k, "square"))


def _large_paths():
    """2,000 seeded random square paths with n from 10 to 20, more than
    half of them decorated."""
    rng = random.Random(5281)
    corpus = [random_square_path(rng, 10 + i % 11) for i in range(2000)]
    assert sum(1 for p in corpus if p.decorations) > 1000
    return corpus


def _repeated_label_paths():
    """3,000 seeded random square paths with n from 1 to 9 whose labels
    repeat across columns."""
    rng = random.Random(8128)
    return [random_square_path(rng, 1 + i % 9, top=3) for i in range(3000)]


def _psi_by_validate(path, i):
    """The cut by its definition, the oracle of :func:`psi`: swap the pieces
    at the i-th east step and keep the result if it validates in full."""
    cut = next(c for c in range(1, len(path.steps) + 1) if path.steps[:c].count("E") == i)
    prefix, suffix = path.steps[:cut], path.steps[cut:]
    m = prefix.count("N")
    labels = path.labels[m:] + path.labels[:m]
    decorations = {j - m if j > m else j + path.n - m for j in path.decorations}
    try:
        return validate(suffix + prefix, labels, decorations)
    except PathError:
        return None


class TestPsi:
    def test_last_cut_is_identity(self, small_path):
        assert psi(small_path, small_path.n) == small_path

    @pytest.mark.parametrize("i", [0, 4])
    def test_cut_outside_one_to_n_raises(self, small_path, i):
        with pytest.raises(ValueError, match=r"cut position must be in 1\.\.3"):
            psi(small_path, i)

    def test_invalid_cut_returns_none(self):
        # cutting NNEENE:1,2,3:3 after its first east step produces a path
        # whose decoration is no longer on a contractible valley
        p = parse_path("NNEENE:1,2,3:3")
        results = [psi(p, i) for i in range(1, 4)]
        assert any(q is None for q in results)

    def test_every_cut_of_an_undecorated_path_is_admitted(self):
        # both pieces end in an east step, so only a decoration can be refused
        for n in range(1, 6):
            for p in generate(PathFamily(n, 0, "square")):
                assert all(psi(p, i) is not None for i in range(1, n + 1)), p

    def test_matches_validate_on_every_small_path(self):
        for n in range(1, 6):
            for k in range(n):
                for p in generate(PathFamily(n, k, "square")):
                    for i in range(1, n + 1):
                        assert psi(p, i) == _psi_by_validate(p, i), (p, i)

    def test_matches_validate_on_random_large_paths(self):
        rng = random.Random(4127)
        corpus = [random_square_path(rng, 10 + i % 11) for i in range(2000)]
        assert sum(1 for p in corpus if p.decorations) > 1000
        for p in corpus:
            for i in range(1, p.n + 1):
                assert psi(p, i) == _psi_by_validate(p, i), (p, i)

    def test_psi_preserves_area_and_word(self, big_cycle_paths):
        base = big_cycle_paths[0]
        sdw = diagonal_word(base)
        for i in range(1, base.n + 1):
            q = psi(base, i)
            if q is None:
                continue
            assert area(q) == area(base)
            assert diagonal_word(q).word == sdw.word


class TestBigCycle:
    def test_members_and_canonical(self, big_cycle_paths):
        cycle = cutting_cycle(big_cycle_paths[2])
        assert cycle.members == frozenset(big_cycle_paths)
        assert canonical_rep(big_cycle_paths[2]) == big_cycle_paths[0]

    def test_dinv_ladder(self, big_cycle_paths):
        ordered = ordered_cycle(big_cycle_paths[0])
        assert ordered == big_cycle_paths
        assert [dinv(p) for p in ordered] == [0, 1, 2, 3, 4, 5]

    def test_ladder_scores_each_member_once(self, big_cycle_paths):
        # the ladder reads every member's dinv off one area word and one
        # pass over its pairs, with no dinv per member
        codes = {dinv.__code__, area_word.__code__}
        ladder, calls = profiled_calls(codes, ordered_cycle, big_cycle_paths[0])
        assert ladder == big_cycle_paths
        assert [call.code for call in calls] == [area_word.__code__]

    def test_geometric_order_matches_ladder(self, big_cycle_paths):
        canon = big_cycle_paths[0]
        order = geometric_order(canon)
        assert order == (8, 2, 6, 5, 4, 3)
        for i, ordinal in enumerate(order):
            assert dinv(psi(canon, ordinal)) == i

    def test_breaking_step_recovers_canonical(self, big_cycle_paths):
        canon = big_cycle_paths[0]
        for p in big_cycle_paths:
            assert psi(p, breaking_step(p)) == canon

    def test_schedule_one_members(self, big_cycle_paths):
        members = cutting_cycle(big_cycle_paths[0]).members
        got = {format_path(p) for p in sched_one_members(members)}
        assert got == set(BIG_SCHED_ONE)

    def test_shape_of_canonical(self, big_cycle_paths):
        assert shape_stretches(big_cycle_paths[0]) == Stretches(
            head="EN", body="NENNNNENE", tail="EEENE"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("NE:1:1", "no undecorated north step"),
            ("NNEE:1,2:2", "last undecorated north step not followed by east"),
            ("NNNEEE:1,2,3:2", "decorated step inside the middle stretch"),
            ("NNEE:1,2:1", "head decoration on a nonnegative diagonal"),
            ("NEEN:1,2:2", "tail decoration on a negative diagonal"),
        ],
    )
    def test_shape_violations(self, text, message):
        # built field by field, since some of these are not valid paths
        steps, labels, decorations = text.split(":")
        path = DecoratedLabeledPath(
            steps,
            tuple(int(v) for v in labels.split(",")),
            frozenset(int(j) for j in decorations.split(",")),
        )
        with pytest.raises(ShapeViolation) as caught:
            shape_stretches(path)
        assert str(caught.value) == f"{text}: {message}"


class TestCycleInvariants:
    def test_cycles_partition_each_family(self):
        for n in range(1, 5):
            for k in range(n):
                paths = set(generate(PathFamily(n, k, "square")))
                seen = set()
                for p in paths:
                    if p in seen:
                        continue
                    members = cutting_cycle(p).members
                    assert members <= paths and not (members & seen)
                    seen |= members
                assert seen == paths

    @given(data=st.data())
    def test_canonical_is_a_member(self, all_paths_n_le_4, data):
        p = data.draw(st.sampled_from(all_paths_n_le_4))
        assert canonical_rep(p) in cutting_cycle(p).members

    def test_cycle_makes_n_cuts_only(self, big_cycle_paths, monkeypatch):
        cuts = []
        cut = cutting._cut

        def counting_cut(path, steps2, labels2, i, position):
            cuts.append(i)
            return cut(path, steps2, labels2, i, position)

        def no_canonical(path):
            raise AssertionError("cutting_cycle computed a canonical member")

        monkeypatch.setattr(cutting, "_cut", counting_cut)
        monkeypatch.setattr(cutting, "canonical_rep", no_canonical)
        p = big_cycle_paths[2]
        assert cutting_cycle(p).members == frozenset(big_cycle_paths)
        assert sorted(cuts) == list(range(1, p.n + 1))

    def test_members_match_validate_on_every_small_path(self):
        for p in _small_paths():
            expected = {_psi_by_validate(p, i) for i in range(1, p.n + 1)} - {None}
            assert cutting_cycle(p).members == expected, p

    def test_members_match_validate_on_random_large_paths(self):
        for p in _large_paths():
            expected = {_psi_by_validate(p, i) for i in range(1, p.n + 1)} - {None}
            assert cutting_cycle(p).members == expected, p

    def test_cycle_dinvs_match_dinv_on_every_small_path(self):
        for p in _small_paths():
            scores = cycle_dinvs(p)
            assert scores.keys() == cutting_cycle(p).members, p
            assert scores == {q: dinv(q) for q in scores}, p

    def test_cycle_dinvs_match_dinv_on_random_large_paths(self):
        for p in _large_paths():
            scores = cycle_dinvs(p)
            assert scores.keys() == cutting_cycle(p).members, p
            assert scores == {q: dinv(q) for q in scores}, p

    def test_cycle_dinvs_match_dinv_with_repeated_labels(self):
        # equal labels on one diagonal or on neighbouring ones attack in
        # neither order, which the strict comparisons must keep
        ties = 0
        for p in _repeated_label_paths():
            a = area_word(p)
            ties += any(
                p.labels[x] == p.labels[y] and abs(a[x] - a[y]) <= 1
                for y in range(p.n)
                for x in range(y)
            )
            scores = cycle_dinvs(p)
            assert scores.keys() == cutting_cycle(p).members, p
            assert scores == {q: dinv(q) for q in scores}, p
        assert ties > 1000

    def test_cycle_makes_no_validate_call(self, big_cycle_paths):
        _, calls = profiled_calls({validate.__code__}, cutting_cycle, big_cycle_paths[2])
        assert len(calls) == 0

    def test_undecorated_cycle_scans_no_valleys(self):
        codes = {contractible_valleys.__code__}
        for p in generate(PathFamily(4, 0, "square")):
            _, calls = profiled_calls(codes, cutting_cycle, p)
            assert len(calls) == 0, p

    def test_ladder_tie_is_a_violation(self):
        # a cycle with no schedule-one member: two members share dinv 2
        with pytest.raises(LadderViolation, match=r"dinv values \[0, 2, 2\]"):
            ordered_cycle(parse_path("NNEENE:1,3,2:"))

    def test_schedule_one_canonical_shared_dinv_zero(self):
        # all schedule-one members of a cycle break to the same
        # representative, and that representative has dinv 0
        by_cycle = {}
        for p in schedule_one_paths(4):
            c = canonical_rep(p)
            assert dinv(c) == 0
            assert canonical_rep(c) == c
            by_cycle.setdefault(cutting_cycle(p).members, set()).add(c)
        assert all(len(canons) == 1 for canons in by_cycle.values())
