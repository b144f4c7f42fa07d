"""Every named verify suite passes at small sizes."""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import replace

import pytest

from pathlab import adr, bridge, cutting, enumeration, paths, poly, schedule, verify
from pathlab.verify import CHECKS, SHARDED, run_suite

from conftest import profiled_calls


class InlinePool:
    """A stand-in for verify's process pool that maps in this process and
    records the size of each pool made."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cells):
        return map(fn, cells)


@pytest.fixture
def inline_pool(monkeypatch):
    """Runs verify's pool inline; returns the list of pool sizes."""
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(verify, "ProcessPoolExecutor", InlinePool)
    return InlinePool.sizes


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_suite_passes_up_to_four(check_id):
    reports = list(run_suite(check_id, 4, jobs=1))
    assert [(r.params["n"], r.ok) for r in reports] == [(n, True) for n in range(1, 5)]


def test_euler_checks_even_sizes(monkeypatch):
    # a DP that counts one undecorated parity output at every size
    monkeypatch.setattr(adr, "fast_sums", lambda n, kind="square": (poly.TPoly.one(),) * n)
    assert verify.check_euler(2) == "S(2,0) != 0"


def test_euler_checks_the_dyck_form(monkeypatch):
    # Dyck sums that are 1 at every k and size, with the square sums left right
    original = adr.fast_sums

    def faulty(n, kind="square"):
        return (poly.TPoly.one(),) * n if kind == "dyck" else original(n, kind)

    monkeypatch.setattr(adr, "fast_sums", faulty)
    assert verify.check_euler(2) == "D(2,0) != t^1 euler_t(2)"
    assert verify.check_euler(3) == "D(3,0) != t^2 euler_t(3)"


@pytest.mark.parametrize(
    "k, fault, witness",
    [
        (1, lambda d: d * poly.TPoly.monomial(1), "D(4,1) is not positive exactly on degrees 2..5"),
        (
            1,
            lambda d: poly.TPoly(d.coeffs[:3] + (0,) + d.coeffs[4:]),
            "D(4,1) is not positive exactly on degrees 2..5",
        ),
        (2, lambda d: d + poly.TPoly.monomial(1), "D(4,2)(1) != 2^3 - 1"),
    ],
    ids=["degrees", "hole", "at-one"],
)
def test_euler_checks_every_k(monkeypatch, k, fault, witness):
    # D(4, 1) = 2t^2 + 5t^3 + 3t^4 + t^5 moved up one degree or with its t^3
    # term gone, or D(4, 2) with one more path at t = 1; the other k left right
    original = adr.fast_sums

    def faulty(n, kind="square"):
        sums = original(n, kind)
        if kind != "dyck":
            return sums
        return tuple(fault(d) if j == k else d for j, d in enumerate(sums))

    monkeypatch.setattr(adr, "fast_sums", faulty)
    assert verify.check_euler(4) == witness


def _first_failure(check_id: str, max_n: int) -> tuple[int, str]:
    """The size and witness of the suite's first failing size up to max_n."""
    report = next(r for r in run_suite(check_id, max_n, jobs=1) if not r.ok)
    return report.params["n"], report.witness


def test_interval_catches_a_gap_in_the_schedule_values(monkeypatch):
    # every schedule value 2 read as 3, so {1, 3} is no initial segment
    original = schedule.schedule_numbers
    monkeypatch.setattr(
        schedule, "schedule_numbers", lambda sdw: tuple(3 if w == 2 else w for w in original(sdw))
    )
    assert _first_failure("interval", 3) == (2, "(2, 1) shift 0: (1, 3)")


def _doubled(sums):
    return tuple(s + s for s in sums)


@pytest.mark.parametrize(
    "fault, failure",
    [
        (lambda sums, kind: (poly.TPoly.one(),) * len(sums), (2, "S(2,0) nonzero")),
        (lambda sums, kind: _doubled(sums) if kind == "square" else sums, (1, "S(1,0) mismatch")),
        (lambda sums, kind: _doubled(sums) if kind == "dyck" else sums, (1, "D(1,0) mismatch")),
    ],
    ids=["nonzero", "square", "dyck"],
)
def test_cancellation_word_catches_wrong_brute_sums(monkeypatch, fault, failure):
    # brute sums of one at every k, or doubled for one kind
    original = enumeration.signed_sums
    monkeypatch.setattr(
        enumeration,
        "signed_sums",
        lambda n, kind="square", shard=None: fault(original(n, kind, shard), kind),
    )
    assert _first_failure("cancellation-word", 3) == failure


@pytest.mark.parametrize(
    "name, failure",
    [
        ("parity_decorate", "odd [DecoratedPermutation(values=(1, 2), decorated=frozenset({1}))]"),
        ("dyck_decorate", "flat [DecoratedPermutation(values=(1, 2), decorated=frozenset())]"),
    ],
)
def test_decorate_unique_catches_the_other_algorithm(monkeypatch, name, failure):
    # each algorithm swapped for the other: at n = 2 they decorate 1 2 apart
    other = {"parity_decorate": adr.dyck_decorate, "dyck_decorate": adr.parity_decorate}
    monkeypatch.setattr(adr, name, other[name])
    assert _first_failure("decorate-unique", 3) == (2, f"(1, 2): {failure}")


def test_recursion_catches_a_wrong_sum(monkeypatch):
    # S(n, 1) one degree too high: S(2, 1) = 1 + t read as t + t^2
    original = adr.recursive_sums
    t = poly.TPoly.monomial(1)

    def faulty(n):
        return tuple(s * t if k == 1 else s for k, s in enumerate(original(n)))

    monkeypatch.setattr(adr, "recursive_sums", faulty)
    assert _first_failure("recursion", 3) == (2, "k=1")


def test_sum_factorial_catches_a_missing_k(monkeypatch):
    # the Dyck sums without k = 2, so the first size that has one misses
    # D(3, 2) = 1 from [3]_t! = t^3 + 2t^2 + 2t + 1
    original = adr.fast_sums

    def faulty(n, kind="square"):
        sums = original(n, kind)
        return tuple(poly.TPoly() if (kind, k) == ("dyck", 2) else s for k, s in enumerate(sums))

    monkeypatch.setattr(adr, "fast_sums", faulty)
    assert _first_failure("sum-factorial", 4) == (3, "sum D = t^3 + 2*t^2 + 2*t")


def test_egf_catches_a_wrong_dp_count(monkeypatch):
    # one more permutation of size 5 with one chain decoration and revmaj 4,
    # first run not two: the parity algorithm decorates its first letter
    # too (5 - 1 is even), so S(5, 2)(1) reads 91 for 90
    original = adr._chain_counts

    def perturbed(n):
        two, other = original(n)
        if n == 5:
            other = {**other, (1, 4): other[1, 4] + 1}
        return two, other

    monkeypatch.setattr(adr, "_chain_counts", perturbed)
    reports = list(run_suite("egf", 6, jobs=1))
    assert [r.ok for r in reports] == [True] * 4 + [False, True]
    assert reports[4].witness == "S(5,2)(1) = 91, the series gives 90"


def test_shape_fails_on_a_path_that_is_not_schedule_one(monkeypatch):
    # its middle stretch holds two consecutive east steps
    def not_schedule_one(n, shard=None):
        yield paths.parse_path("NNEENE:1,2,3:")

    monkeypatch.setattr(enumeration, "schedule_one_paths", not_schedule_one)
    report = list(run_suite("shape", 3, jobs=1))[-1]
    assert not report.ok and report.witness.startswith("ShapeViolation:")


def test_dinv_ladder_builds_one_cycle_per_seed():
    # 480 schedule-one seeds at n = 5 lie in 226 cycles; a cycle is built
    # once, as a ladder from the first seed met in it, and a later seed is
    # looked up by member, so no seed's cycle is cut on its own
    passed, calls = profiled_calls(
        {cutting.cutting_cycle.__code__, cutting.ordered_cycle.__code__},
        lambda: all(verify.check_dinv_ladder(5, shard) is None for shard in range(5)),
    )
    assert passed
    assert Counter(call.code.co_name for call in calls) == {"ordered_cycle": 226}


def test_dinv_ladder_checks_each_cycle_once(monkeypatch):
    # 480 schedule-one seeds at n = 5 lie in 226 cycles
    calls = []
    original = cutting.geometric_order

    def counting_order(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(cutting, "geometric_order", counting_order)
    assert all(verify.check_dinv_ladder(5, shard) is None for shard in range(5))
    assert len(calls) == 226


def test_dinv_ladder_computes_each_members_word_once():
    # counted over the five area shards of n = 5; the seed stream reads its
    # runs off the step word and makes none, the ladders one per member
    passed, calls = profiled_calls(
        {schedule.diagonal_word.__code__},
        lambda: all(verify.check_dinv_ladder(5, shard) is None for shard in range(5)),
    )
    assert passed
    assert len(calls) == 760


def test_dinv_ladder_builds_one_schedule_table_per_cycle():
    # a ladder's members share one diagonal word, so their all-ones shifts
    # are read off one table: 226 for the 226 cycles over the five area
    # shards of n = 5, against 760, one per member, from each member's own
    # word object
    passed, calls = profiled_calls(
        {schedule._schedule_table.__code__},
        lambda: all(verify.check_dinv_ladder(5, shard) is None for shard in range(5)),
    )
    assert passed
    assert len(calls) == 226


def test_dinv_ladder_checks_the_ladder_against_dinv(monkeypatch):
    # scores that swap each cycle's dinv-0 and dinv-1 members still ladder
    original = cutting.cycle_dinvs

    def swapped(path):
        scores = original(path)
        if len(scores) > 1:
            first, second = sorted(scores, key=scores.__getitem__)[:2]
            scores[first], scores[second] = 1, 0
        return scores

    monkeypatch.setattr(cutting, "cycle_dinvs", swapped)
    report = list(run_suite("dinv-ladder", 3, jobs=1))[-1]
    assert not report.ok and report.witness == "EENNNE:1,2,3: ladder differs from dinv"


def test_all_ones_searches_build_no_schedule_words():
    # the decoration sweep and the stream score all-ones shifts on bit
    # slices, so neither builds a ScheduleTable, a diagonal word or a
    # schedule word for any decoration set
    (unique, seeds), calls = profiled_calls(
        {
            schedule._schedule_table.__code__,
            schedule.schedule_numbers.__code__,
            schedule.diagonal_word.__code__,
        },
        lambda: (
            [verify.check_decorate_unique(5, shard) for shard in range(5)],
            list(enumeration.schedule_one_paths(5)),
        ),
    )
    assert unique == [None] * 5
    assert len(seeds) == 480
    assert calls == []


@pytest.mark.parametrize(
    "check_id, witness",
    [
        (
            "decorate-unique",
            "(1, 3, 2): odd [DecoratedPermutation(values=(1, 3, 2), decorated=frozenset()),"
            " DecoratedPermutation(values=(1, 3, 2), decorated=frozenset({1, 3}))]",
        ),
        ("dinv-ladder", "LadderViolation: cycle of NENNEE:1,2,3: has dinv values [1, 1, 3]"),
    ],
)
def test_exactly_one_read_as_at_least_one_fails_at_n_3(monkeypatch, check_id, witness):
    # the decoration sweep and the stream both count a low or high set with
    # schedule.exactly_one; read as "at least one", they admit words and
    # paths whose schedule is not all ones, and both suites fail at n = 3
    def at_least_one(slices):
        return functools.reduce(operator.or_, slices, 0)

    monkeypatch.setattr(adr, "exactly_one", at_least_one)
    monkeypatch.setattr(enumeration, "exactly_one", at_least_one)
    reports = list(run_suite(check_id, 3, jobs=1))
    assert [r.ok for r in reports] == [True, True, False]
    assert reports[-1].witness == witness


def test_decorate_unique_finds_each_permutations_runs_once():
    # the decoration sweep and the shift-zero algorithm each find the runs
    # of every permutation of n = 5 once
    witnesses, calls = profiled_calls(
        {schedule.decreasing_runs.__code__},
        lambda: [verify.check_decorate_unique(5, shard) for shard in range(5)],
    )
    assert witnesses == [None] * 5
    assert len(calls) <= 2 * 120


def test_workers_capped_at_cell_count(inline_pool):
    reports = list(run_suite("euler", 3, jobs=64))
    assert inline_pool == [3]
    assert [r.line() for r in reports] == [f"euler[n={n}] PASS" for n in (1, 2, 3)]


# ---------------------------------------------------------------- shards


def test_battery_suites_are_sharded():
    assert SHARDED == {
        "schedule-formula",
        "interval",
        "cancellation-path",
        "dinv-ladder",
        "shape",
        "partition",
        "decorate-unique",
        "phi-bijection",
        "delta-bijection",
    }


@pytest.mark.parametrize("n", range(1, 6))
def test_permutation_shards_partition_in_order(n):
    # shard j holds the permutations that start with j + 1, so the shards in
    # order are the lexicographic stream
    whole = list(itertools.permutations(range(1, n + 1)))
    assert [p for j in range(n) for p in verify._permutations(n, j)] == whole


@pytest.mark.parametrize("n", range(1, 6))
def test_area_shards_partition_seeds_and_cycles(n):
    whole = list(enumeration.schedule_one_paths(n))
    shards = [list(enumeration.schedule_one_paths(n, j)) for j in range(n)]
    assert sum(len(shard) for shard in shards) == len(whole)
    assert set().union(*shards) == set(whole)
    for j, shard in enumerate(shards):
        seeds = set(shard)
        for seed in shard:
            members = cutting.cutting_cycle(seed).members
            assert all(paths.area(q) % n == j for q in members)
            assert set(cutting.sched_one_members(members)) <= seeds
    merged = Counter()
    for j in range(n):
        merged.update(bridge.classes(n, j))
    assert merged == bridge.classes(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_area_shards_split_brute_sums(n):
    whole = enumeration.signed_sums(n)
    shards = [enumeration.signed_sums(n, "square", j) for j in range(n)]
    for k in range(n):
        assert sum((part[k] for part in shards), start=poly.TPoly()) == whole[k]
        for j, part in enumerate(shards):
            assert all(a % n == j for a, c in enumerate(part[k].coeffs) if c)


def test_area_shards_split_bare_paths_evenly():
    # a composition's full slice has one bit per labeling
    labelings = [
        sum(
            len(list(profiles)) * enumeration._label_slices(columns)[0].bit_count()
            for columns, profiles in enumeration.step_groups(6, "square", j)
        )
        for j in range(6)
    ]
    assert labelings == [7776] * 6


def test_schedule_formula_cells_are_never_empty():
    # the fibers of each (n, shard) cell of schedule-formula, over every k,
    # for n <= 6: sharded by area mod n, no cell is empty
    counts = {
        n: [sum(map(len, enumeration.fibers_by_sdw(n, "square", j))) for j in range(n)]
        for n in range(1, 7)
    }
    assert counts == {
        1: [1],
        2: [2, 3],
        3: [9, 11, 9],
        4: [53, 55, 51, 50],
        5: [370, 363, 353, 357, 366],
        6: [3067, 3017, 2995, 3024, 3072, 3094],
    }


def test_fiber_walks_build_no_paths():
    """schedule-formula and sdw-area read every path's statistics off its
    step word's profile and labeling: neither makes a generate,
    diagonal_word, dinv or area call (checked at n = 4)."""
    codes = {
        enumeration.generate.__code__,
        schedule.diagonal_word.__code__,
        paths.dinv.__code__,
        paths.area.__code__,
    }
    for check, args in [(verify.check_sdw_area, (4,))] + [
        (verify.check_schedule_formula, (4, j)) for j in range(4)
    ]:
        passed, calls = profiled_calls(codes, check, *args)
        assert passed is None and calls == [], (check.__name__, args)


def test_cancellation_path_streams_each_seed_once(monkeypatch):
    seen = []
    original = bridge.schedule_one_paths

    def counting(n, shard=None):
        for path in original(n, shard):
            seen.append(path)
            yield path

    monkeypatch.setattr(bridge, "schedule_one_paths", counting)
    assert all(verify.check_cancellation_path(5, shard) is None for shard in range(5))
    assert len(seen) == len(set(seen)) == 480


def _drop_a_class(classes):
    del classes[min(classes, key=str)]


def _miscount_a_class(classes):
    classes[min(classes, key=str)] += 1


def _split_a_class(classes):
    # another member of a cutting cycle has the same diagonal word
    for canon in sorted(classes, key=str):
        others = cutting.cutting_cycle(canon).members - {canon}
        if others:
            classes[min(others, key=str)] = 1
            return


@pytest.mark.parametrize(
    "fault, witness",
    [
        (_drop_a_class, "names no class"),
        (_miscount_a_class, "schedule-one members for"),
        (_split_a_class, "names two classes"),
    ],
    ids=["drop", "miscount", "split"],
)
def test_cancellation_path_catches_a_broken_class(monkeypatch, fault, witness):
    original = bridge.classes

    def broken(n, shard=None):
        classes = original(n, shard)
        fault(classes)
        return classes

    monkeypatch.setattr(bridge, "classes", broken)
    report = list(run_suite("cancellation-path", 4, jobs=1))[-1]
    assert not report.ok and witness in report.witness


def _on_positive_dinv(change):
    """A fault that passes a path's result through ``change`` when the path
    has dinv > 0, so a ladder's dinv-0 member keeps the true value."""

    def fault(original):
        def broken(path):
            out = original(path)
            return change(out) if paths.dinv(path) > 0 else out

        return broken

    return fault


def _reversed_word(sdw):
    return replace(sdw, word=replace(sdw.word, values=sdw.word.values[::-1]))


def _without_top(scores):
    """Scores that drop a cycle's top member; they still ladder 0..size-2."""
    top = max(scores, key=scores.__getitem__)
    return {q: d for q, d in scores.items() if q != top}


@pytest.mark.parametrize(
    "module, name, fault, witness",
    [
        (
            cutting,
            "cycle_dinvs",
            lambda original: lambda path: {path: 0},
            "size 1",
        ),
        (
            cutting,
            "cycle_dinvs",
            lambda original: lambda path: _without_top(original(path)),
            "size 3",
        ),
        (
            cutting,
            "cycle_dinvs",
            lambda original: lambda path: {
                ("stranger" if q == path else q): d for q, d in original(path).items()
            },
            "not in its own cycle",
        ),
        (
            cutting,
            "canonical_rep",
            lambda original: lambda path: path,
            "canonical is not the dinv-0 member",
        ),
        (schedule, "diagonal_word", _on_positive_dinv(_reversed_word), "word not constant"),
        (paths, "area", _on_positive_dinv(lambda a: a + 1), "area not constant"),
        (
            cutting,
            "geometric_order",
            lambda original: lambda path: original(path)[::-1],
            "geometric order differs",
        ),
        (
            schedule,
            "ones_shifts",
            lambda original: lambda word: frozenset(),
            "schedule-one members differ",
        ),
    ],
    ids=[
        "one-member",
        "top-dropped",
        "seed-missing",
        "canonical",
        "word",
        "area",
        "geometric",
        "schedule-one",
    ],
)
def test_dinv_ladder_catches_a_broken_invariant(monkeypatch, module, name, fault, witness):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    report = list(run_suite("dinv-ladder", 4, jobs=1))[-1]
    assert not report.ok and report.witness == f"EENNENNE:2,4,1,3: {witness}"


def test_schedule_formula_catches_a_wrong_closed_form(monkeypatch):
    original = schedule.schedule_rhs
    q = poly.QTPoly.monomial(1, 0)
    monkeypatch.setattr(schedule, "schedule_rhs", lambda sdw: original(sdw) * q)
    report = list(run_suite("schedule-formula", 2, jobs=1))[0]
    assert not report.ok and report.witness.endswith(" qt mismatch")


def _one_more_area(step_profile):
    return lambda steps: step_profile(steps)._replace(area=step_profile(steps).area + 1)


@pytest.mark.parametrize(
    "module, name, fault",
    [
        (schedule, "revmaj", lambda revmaj: lambda seq: revmaj(seq) + 1),
        (enumeration, "_step_profile", _one_more_area),
    ],
)
def test_sdw_area_catches_area_not_revmaj(monkeypatch, module, name, fault):
    # a wrong revmaj, or a wrong area, fails the first size with its one
    # path as the witness
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    report = list(run_suite("sdw-area", 2, jobs=1))[0]
    assert not report.ok and report.witness == "NE:1:"
    assert paths.parse_path(report.witness) == paths.DecoratedLabeledPath("NE", (1,))


def test_sdw_area_witness_is_the_walks_first_failure(monkeypatch):
    # a revmaj wrong only where it is 2 fails first at n = 3, with the first
    # path of area 2 in the walk's order (step words grouped by column
    # composition), not generate's first, ENNENE:1,2,3:
    revmaj = schedule.revmaj
    monkeypatch.setattr(schedule, "revmaj", lambda seq: revmaj(seq) + (revmaj(seq) == 2))
    reports = list(run_suite("sdw-area", 3, jobs=1))
    assert [r.ok for r in reports] == [True, True, False]
    assert reports[-1].witness == "NEENNE:1,2,3:"


def test_phi_bijection_catches_moved_letters(monkeypatch):
    def swapped(word):
        values = word.values[1::-1] + word.values[2:]
        return schedule.DecoratedPermutation(values, word.decorated)

    monkeypatch.setattr(adr, "phi", swapped)
    report = list(run_suite("phi-bijection", 2, jobs=1))[-1]
    assert not report.ok and report.witness.endswith(" letters changed")


def _delta_of_the_identity(original):
    # the image of the identity source, whatever nonempty source it is given
    def delta(m, word):
        if word.n:
            word = adr.dyck_decorate(tuple(range(1, word.n + 1)))
        return original(m, word)

    return delta


def _delta_of_a_revmaj_twin(original):
    # the image of the least source with the same revmaj: revmaj still
    # rises by n - m, but two sources share an image, so some word is not
    # its own source's image
    def delta(m, word):
        if word.n:
            twins = (
                values
                for values in itertools.permutations(range(1, word.n + 1))
                if schedule.revmaj(values) == schedule.revmaj(word)
            )
            word = adr.dyck_decorate(next(twins))
        return original(m, word)

    return delta


def _delta_with_a_toggled_decoration(original):
    # the last letter's decoration flips; the images stay distinct and keep
    # their revmaj, but are no longer the parity-algorithm outputs
    def delta(m, word):
        image = original(m, word)
        return schedule.DecoratedPermutation(image.values, image.decorated ^ {image.values[-1]})

    return delta


def _names_a_parity_output(witness):
    # "delta(m, source) is not w", w the parity-algorithm output of its letters
    _, pointwise, expected = witness.partition(" is not ")
    if not pointwise:
        return False
    word = schedule.parse_perm(expected)
    return word == adr.parity_decorate(word.values)


@pytest.mark.parametrize(
    "fault, names_the_fault",
    [
        (_delta_of_the_identity, lambda witness: witness.endswith(" revmaj")),
        (_delta_of_a_revmaj_twin, _names_a_parity_output),
        (_delta_with_a_toggled_decoration, _names_a_parity_output),
    ],
    ids=["identity", "twin", "toggle"],
)
def test_delta_bijection_catches_a_broken_delta(monkeypatch, fault, names_the_fault):
    monkeypatch.setattr(adr, "delta", fault(adr.delta))
    report = list(run_suite("delta-bijection", 4, jobs=1))[-1]
    assert not report.ok and names_the_fault(report.witness)


def test_partition_checks_cycle_sizes(monkeypatch):
    # every path its own one-member cycle still partitions each family
    def one_member(path):
        return cutting.CuttingCycle(frozenset({path}))

    monkeypatch.setattr(cutting, "cutting_cycle", one_member)
    report = list(run_suite("partition", 3, jobs=1))[-1]
    assert not report.ok and report.witness.endswith(" cycle size 1")


def test_partition_checks_cycles_are_disjoint(monkeypatch):
    # the first path's cycle is kept; every later path's cycle swaps one of
    # its other members for one member of the first, so each later member
    # set is new and meets the first in exactly that member
    original = cutting.cutting_cycle
    family = list(enumeration.generate(enumeration.PathFamily(3, 0, "square")))
    first = original(family[0]).members
    anchor = min(first, key=str)
    later = next(p for p in family if p not in first)

    def overlapping(path):
        if path in first:
            return original(path)
        others = sorted(original(path).members - {path}, key=str)
        return cutting.CuttingCycle(frozenset({path, anchor, *others[1:]}))

    monkeypatch.setattr(cutting, "cutting_cycle", overlapping)
    assert verify.check_partition(3, 0) == f"{later} overlaps {anchor}"


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_reports_do_not_depend_on_jobs(check_id):
    serial = list(run_suite(check_id, 5, jobs=1))
    pooled = list(run_suite(check_id, 5, jobs=2))
    assert [(r.params["n"], r.ok) for r in serial] == [(n, True) for n in range(1, 6)]
    assert [r.line() for r in serial] == [r.line() for r in pooled]
    shards = [n if check_id in SHARDED else 1 for n in range(1, 6)]
    assert [r.shards for r in serial] == [r.shards for r in pooled] == shards


def test_lowest_failing_shard_names_the_witness(monkeypatch, inline_pool):
    def fails_in_two_shards(n, shard):
        return f"shard {shard}" if n == 3 and shard in (0, 1) else None

    monkeypatch.setitem(CHECKS, "interval", (fails_in_two_shards, 3))
    expected = [
        "interval[n=1] PASS",
        "interval[n=2] PASS",
        "interval[n=3] FAIL witness: shard 0",
    ]
    for jobs in (1, 3):
        assert [r.line() for r in run_suite("interval", jobs=jobs)] == expected
    assert inline_pool == [3]
