"""Shared fixtures: small frozen objects used across the test modules.

The long diagonal-word/cycle fixtures describe one size-8 cutting cycle
whose six members were computed once by the cutting machinery and then
hand-checked against the step diagrams; tests pin them as literals.
"""

from __future__ import annotations

import itertools
import random
import sys
from types import CodeType
from typing import NamedTuple

import pytest

from pathlab.adr import ADRWitness, adr_decorations
from pathlab.enumeration import PathFamily, generate
from pathlab.paths import contractible_valleys, parse_path, validate
from pathlab.schedule import parse_perm

# a size-3 Dyck path with one decorated valley and dinv 0
SMALL_PATH = "NNEENE:1,2,3:3"

# a size-8 word, decorated on the values 7 and 4, whose schedule word is
# all ones exactly at shifts 2 and 3
BIG_WORD = "7* 8 4* 2 3 5 6 1"

# the six members of its cutting cycle, listed in dinv order 0..5
BIG_CYCLE = (
    "ENNENNNNENEEEENE:7,8,2,3,5,6,1,4:1,8",
    "NNNNENEEEENEENNE:2,3,5,6,1,4,7,8:6,7",
    "ENEENNENNNNENEEE:4,7,8,2,3,5,6,1:1,2",
    "EENEENNENNNNENEE:4,7,8,2,3,5,6,1:1,2",
    "EEENEENNENNNNENE:4,7,8,2,3,5,6,1:1,2",
    "NEEEENEENNENNNNE:1,4,7,8,2,3,5,6:2,3",
)
# the members whose own schedule word is all ones (shifts 2 and 3)
BIG_SCHED_ONE = (BIG_CYCLE[2], BIG_CYCLE[3])

# a size-7 word whose fiber at shift 1 holds 16 paths
FIBER_WORD = "4 1* 6 5 3* 2* 7"
FIBER_SHIFT = 1


class Call(NamedTuple):
    """One call seen by :func:`profiled_calls`."""

    code: CodeType  # the function called
    caller: CodeType  # the nearest calling function, past comprehensions
    locals: dict  # its arguments, as the call began


def profiled_calls(codes, fn, *args):
    """Run ``fn(*args)`` under ``sys.setprofile``; return its result and the
    calls it made to any of the code objects ``codes``, in call order.
    Matching by code object sees every route to a function, whatever name
    it was reached by."""
    calls = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            caller = frame.f_back
            while caller.f_code.co_name.startswith("<"):  # a comprehension
                caller = caller.f_back
            calls.append(Call(frame.f_code, caller.f_code, dict(frame.f_locals)))

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def random_square_path(rng: random.Random, n: int, top: int | None = None):
    """A square path of size n: a random step word ending east, labels
    increasing up each column, and about half of its contractible valleys
    decorated (at most n - 1).  The labels are 1..n, so standard, unless
    ``top`` is given: then each column draws its own from
    1..max(top, column height), so labels repeat across columns."""
    norths = set(rng.sample(range(2 * n - 1), n))
    steps = "".join("N" if i in norths else "E" for i in range(2 * n - 1)) + "E"
    letters = rng.sample(range(1, n + 1), n)
    labels = []
    for column in steps.split("E"):
        if top is None:
            labels.extend(sorted(letters[len(labels) : len(labels) + len(column)]))
        else:
            labels.extend(sorted(rng.sample(range(1, max(top, len(column)) + 1), len(column))))
    valleys = sorted(contractible_valleys(validate(steps, labels)))
    return validate(steps, labels, [v for v in valleys if rng.random() < 0.5][: n - 1])


def all_adrs(n: int, k: int) -> tuple[ADRWitness, ...]:
    """Every ADR word of size n with k decorations, with its shift witness,
    permutations in lexicographic order."""
    return tuple(
        witness
        for values in itertools.permutations(range(1, n + 1))
        for witness in adr_decorations(values)
        if len(witness.word.decorated) == k
    )


@pytest.fixture
def small_path():
    return parse_path(SMALL_PATH)


@pytest.fixture
def big_word():
    return parse_perm(BIG_WORD)


@pytest.fixture
def big_cycle_paths():
    return tuple(parse_path(text) for text in BIG_CYCLE)


@pytest.fixture(scope="session")
def all_paths_n_le_4():
    """Every decorated labeled square path of size at most 4."""
    out = []
    for n in range(1, 5):
        for k in range(n):
            out.extend(generate(PathFamily(n, k, "square")))
    return tuple(out)
