"""Every named verify suite passes at small sizes."""

from __future__ import annotations

import pytest

from pathlab.verify import CHECKS, run_suite


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_suite_passes_up_to_four(check_id):
    reports = list(run_suite(check_id, 4, jobs=1))
    assert [(r.params["n"], r.ok) for r in reports] == [(n, True) for n in range(1, 5)]
