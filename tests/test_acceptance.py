"""Acceptance gate: ten end-to-end criteria, each reporting one line.

Every criterion prints exactly one ``criterion NN <name>: PASS|FAIL`` line on
the real stdout (bypassing capture) so the gate is readable from the raw
pytest log.  All comparisons are exact; there are no numeric tolerances
anywhere in this suite.

A criterion that restates an invariant of :mod:`pathlab.verify` runs that
suite in this process (so the word-level sums cached by one criterion serve
the next) and requires every size to PASS; the rest compare against literals
or against sums that no suite computes.
"""

from __future__ import annotations

import itertools
import sys
import time
from contextlib import contextmanager

from pathlab.adr import S_fast, delta, parity_decorate, phi
from pathlab.bridge import _fiber_paths as fiber_paths
from pathlab.enumeration import D_brute, S_brute
from pathlab.poly import TPoly
from pathlab.schedule import make_perm, parse_perm, revmaj
from pathlab.verify import run_suite

from conftest import all_adrs


@contextmanager
def report(label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {label}: FAIL", file=sys.__stdout__, flush=True)
        raise
    print(f"criterion {label}: PASS", file=sys.__stdout__, flush=True)


def assert_suite_passes(check_id: str, max_n: int) -> None:
    for cell in run_suite(check_id, max_n, jobs=1):
        assert cell.ok, cell.line()


TABLE_1 = {
    ("S", 1): [TPoly([1])],
    ("D", 1): [TPoly([1])],
    ("S", 2): [TPoly.zero(), TPoly([1, 1])],
    ("D", 2): [TPoly([0, 1]), TPoly([1])],
    ("S", 3): [TPoly([0, 1, 1, 1]), TPoly.zero(), TPoly([1, 1, 1])],
    ("D", 3): [TPoly([0, 0, 1, 1]), TPoly([0, 2, 1]), TPoly([1])],
}


def test_criterion_01_small_signed_tables():
    with report("01 small-signed-tables"):
        start = time.perf_counter()
        for (stat, n), rows in TABLE_1.items():
            fn = S_brute if stat == "S" else D_brute
            for k, expected in enumerate(rows):
                assert fn(n, k) == expected, (stat, n, k)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_vanishing():
    with report("02 vanishing"):
        # brute = fast for S and D at every k, the oracle range of both brute sums
        assert_suite_passes("cancellation-word", 8)


def test_criterion_03_word_formula():
    with report("03 word-formula"):
        for n in range(1, 6):
            for k in range(n):
                if (n - k) % 2 == 1:
                    expected = TPoly.zero()
                    for witness in all_adrs(n, k):
                        expected = expected + TPoly.monomial(revmaj(witness.word))
                else:
                    expected = TPoly.zero()
                assert S_brute(n, k) == expected, (n, k)


def test_criterion_04_schedule_formula():
    with report("04 schedule-formula"):
        assert_suite_passes("schedule-formula", 5)
        # the one documented size-7 fiber with sixteen members
        fiber = fiber_paths(parse_perm("4 1* 6 5 3* 2* 7"), 1)
        assert len(fiber) == 16


def test_criterion_05_cutting_cycles():
    with report("05 cutting-cycles"):
        assert_suite_passes("dinv-ladder", 6)


def test_criterion_06_decorating_uniqueness():
    with report("06 decorating-uniqueness"):
        assert_suite_passes("decorate-unique", 6)
        assert_suite_passes("phi-bijection", 8)
        # the six size-3 bijection pairs
        table = [
            ("1 2 3", "1 2 3"),
            ("2 3 1", "2 3 1"),
            ("1* 3* 2", "1 3* 2"),
            ("3 1 2", "3* 1 2"),
            ("2* 1* 3", "2 1* 3"),
            ("3* 2* 1", "3* 2* 1"),
        ]
        for src, dst in table:
            assert phi(parse_perm(src)) == parse_perm(dst), src


# delta applied to the six size-3 Dyck representatives, all four residues;
# the third row input is the unique Dyck representative of 312
DELTA_TABLE = {
    "1 2 3": ["1* 2 3 4", "2* 3 4 1", "3* 4 1 2", "4* 1 2 3"],
    "2 3 1": ["1* 3 4 2", "2* 4 1 3", "3* 1 2 4", "4* 2 3 1"],
    "1 3* 2": ["1 2 4* 3", "2 3 1* 4", "3 4 2* 1", "4 1 3* 2"],
    "3* 1 2": ["1 4* 2 3", "2 1* 3 4", "3 2* 4 1", "4 3* 1 2"],
    "2 1* 3": ["1 3 2* 4", "2 4 3* 1", "3 1 4* 2", "4 2 1* 3"],
    "3* 2* 1": ["1* 4* 3* 2", "2* 1* 4* 3", "3* 2* 1* 4", "4* 3* 2* 1"],
}


def test_criterion_07_recursion():
    with report("07 recursion"):
        assert_suite_passes("recursion", 12)
        assert_suite_passes("delta-bijection", 7)
        for src, outs in DELTA_TABLE.items():
            word = parse_perm(src)
            for m, out in enumerate(outs, start=1):
                assert delta(m, word) == parse_perm(out), (m, src)


def test_criterion_08_factorial_identity():
    with report("08 factorial-identity"):
        assert_suite_passes("sum-factorial", 12)


def test_criterion_09_euler_specialization():
    with report("09 euler-specialization"):
        assert_suite_passes("euler", 7)
        assert [S_fast(n, 0)(1) for n in (1, 3, 5, 7)] == [1, 3, 25, 427]


def test_criterion_10_bivariate_refinement():
    with report("10 bivariate-refinement"):
        for n in range(1, 8):
            lhs = {k: S_fast(n, k) for k in range(n)}
            rhs: dict[int, TPoly] = {}
            for values in itertools.permutations(range(1, n + 1)):
                k = len(parity_decorate(values).decorated)
                rhs[k] = rhs.get(k, TPoly.zero()) + TPoly.monomial(
                    revmaj(make_perm(values))
                )
            for k in range(n):
                assert lhs[k] == rhs.get(k, TPoly.zero()), (n, k)
