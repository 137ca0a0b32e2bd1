"""The rule of tests/quality_gate.py, on hand-made summaries: it passes
equal summaries and fails each way a problem can break it."""

import pytest

from quality_gate import compare
from sofsyn.analysis import NORM_REL_TOL

BASE = {"p": {"success_count": 20, "q1": 1.0, "median": 2.0, "q3": 3.0}}
TOL = NORM_REL_TOL * 2.0


def test_equal_summaries_pass():
    assert compare(BASE, BASE) == []


def test_bounds_are_inclusive():
    edge = {"success_count": 20, "q1": 0.0, "median": 3.0 + TOL / 2, "q3": 5.0 + TOL / 2}
    assert compare(BASE, {"p": edge}) == []


@pytest.mark.parametrize("change", [
    {"success_count": 19},
    {"median": 3.0 + 2 * TOL},
    {"q3": 5.0 + 2 * TOL},
])
def test_each_broken_bound_fails_naming_the_problem(change):
    [message] = compare(BASE, {"p": {**BASE["p"], **change}})
    assert message.startswith("p: ")
