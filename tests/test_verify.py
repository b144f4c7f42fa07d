"""Every named verify suite passes at small sizes."""

from __future__ import annotations

import sys

import pytest

from pathlab import adr, cutting, enumeration, schedule, verify
from pathlab.schedule import DecoratedPermutation
from pathlab.verify import CHECKS, run_suite


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_suite_passes_up_to_four(check_id):
    reports = list(run_suite(check_id, 4, jobs=1))
    assert [(r.params["n"], r.ok) for r in reports] == [(n, True) for n in range(1, 5)]


def test_euler_checks_even_sizes(monkeypatch):
    monkeypatch.setattr(
        adr, "parity_decorate", lambda values: DecoratedPermutation(tuple(values), frozenset())
    )
    assert verify.check_euler(2) is not None


def test_dinv_ladder_builds_each_cycle_once(monkeypatch):
    calls = []
    original = cutting.cutting_cycle

    def counting_cycle(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(cutting, "cutting_cycle", counting_cycle)
    assert verify.check_dinv_ladder(5) is None
    assert len(calls) == 480


def test_dinv_ladder_checks_each_cycle_once(monkeypatch):
    # 480 schedule-one seeds at n = 5 lie in 226 cycles
    calls = []
    original = cutting.geometric_order

    def counting_order(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(cutting, "geometric_order", counting_order)
    assert verify.check_dinv_ladder(5) is None
    assert len(calls) == 226


def test_all_ones_searches_build_no_schedule_words():
    # counted by code object, so every route to the functions is seen
    counted = {schedule.schedule_numbers.__code__: [], schedule.diagonal_word.__code__: []}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            counted[frame.f_code].append(frame.f_locals.get("path"))

    sys.setprofile(hook)
    try:
        assert verify.check_decorate_unique(5) is None
        seeds = list(enumeration.schedule_one_paths(5))
    finally:
        sys.setprofile(None)
    assert len(seeds) == 480
    assert counted[schedule.schedule_numbers.__code__] == []
    # one diagonal word per bare labeled path, at most 5^5 of them
    bare = counted[schedule.diagonal_word.__code__]
    assert all(not path.decorations for path in bare)
    assert len(set(bare)) == len(bare) <= 5**5


def test_workers_capped_at_cell_count(monkeypatch):
    # a stand-in pool that records its size and maps in this process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", InlinePool)
    reports = list(run_suite("euler", 3, jobs=64))
    assert sizes == [3]
    assert [r.line() for r in reports] == [f"euler[n={n}] PASS" for n in (1, 2, 3)]
