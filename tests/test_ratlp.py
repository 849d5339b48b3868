import re
from fractions import Fraction

import pytest

from coxtile import ratlp
from coxtile.errors import ValidationError
from coxtile.ratlp import solve_lp


def test_simple_bounded():
    # max x + y s.t. x <= 3, y <= 2
    res = solve_lp([1, 1], [[1, 0], [0, 1]], [3, 2])
    assert res.status == "optimal"
    assert res.objective == 5
    assert res.x == [3, 2]


def test_exact_fractions():
    # max x s.t. 3x <= 1
    res = solve_lp([1], [[3]], [1])
    assert res.objective == Fraction(1, 3)


def test_unbounded():
    res = solve_lp([1], [[-1]], [0])
    assert res.status == "unbounded"


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate.  Beale's
    # c = (3/4, -150, 1/50, -6) and rows (1/4, -60, -1/25, 9 | 0) and
    # (1/2, -90, -1/50, 3 | 0) are each scaled by 100 to integers, which
    # moves no pivot and multiplies the objective by 100
    c = [75, -15000, 2, -600]
    A = [
        [25, -6000, -4, 900],
        [50, -9000, -2, 300],
        [0, 0, 1, 0],
    ]
    b = [0, 0, 1]
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    assert res.objective / 100 == Fraction(1, 20)


def test_solution_satisfies_constraints():
    c = [1, 2, -1]
    A = [[1, 1, 1], [2, 0, 1], [-1, 3, 0], [0, 1, 1]]
    b = [10, 8, 5, 2]
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    assert res.x == [4, 2, 0] and res.objective == 8
    for Ai, bi in zip(A, b):
        assert sum(a * x for a, x in zip(Ai, res.x)) <= bi
    assert all(x >= 0 for x in res.x)


# LPs whose origin is infeasible or lies outside some row: the simplex starts
# at the slack basis, x = 0, so each is refused before a tableau is built
NEGATIVE_RHS = {
    "infeasible": ([1], [[1]], [-1]),  # x <= -1 with x >= 0
    "negative-rhs-feasible": ([-1], [[-1]], [-2]),  # x >= 2 written as -x <= -2
    "mixed-constraints": ([2, 3], [[1, 1], [-1, 0], [0, 1]], [4, -1, 2]),  # x >= 1 among <= rows
    "redundant-equality-like-rows": ([1], [[1], [1], [-1]], [1, 1, -1]),  # x <= 1 twice, x >= 1
    "solution-satisfies-constraints": (
        [1, 2, -1],
        [[1, 1, 1], [2, 0, 1], [-1, 3, 0], [0, -1, -1]],
        [10, 8, 5, -2],
    ),
    "phase1-status-is-checked": ([-1], [[-1]], [-2]),
    "zero-row-below-zero": ([1, 1], [[0, 0]], [-1]),  # 0 <= -1
    "equality-as-two-rows": ([1, 1], [[1, 1], [-1, -1]], [2, -2]),  # x + y = 2
}


@pytest.mark.parametrize("c, A, b", list(NEGATIVE_RHS.values()), ids=list(NEGATIVE_RHS))
def test_negative_rhs_is_rejected(monkeypatch, c, A, b):
    def refuse(*args):
        pytest.fail("solve_lp reached the tableau of an LP it must reject")

    monkeypatch.setattr(ratlp._Tableau, "__init__", refuse)
    monkeypatch.setattr(ratlp._Tableau, "pivot", refuse)
    with pytest.raises(ValidationError, match=r"needs b >= 0, so that x = 0 is feasible"):
        solve_lp(c, A, b)


# solve_lp takes ints only: a Fraction, even a whole one, a float or a bool
# anywhere is refused before a tableau is built
NOT_INT = {"fraction": Fraction(1, 2), "whole-fraction": Fraction(2), "float": 1.0, "bool": True}


@pytest.mark.parametrize("where", ["c", "A", "b"])
@pytest.mark.parametrize("value", list(NOT_INT.values()), ids=list(NOT_INT))
def test_an_entry_that_is_not_an_int_is_refused(monkeypatch, where, value):
    def refuse(*args):
        pytest.fail("solve_lp reached the tableau of an LP it must reject")

    monkeypatch.setattr(ratlp._Tableau, "__init__", refuse)
    c, A, b = [1, 1], [[1, 0], [0, 1]], [3, 2]
    if where == "c":
        c[1] = value
    elif where == "A":
        A[1][0] = value
    else:
        b[0] = value
    with pytest.raises(ValidationError, match=rf"^solve_lp takes int entries; .*got {re.escape(repr(value))}$"):
        solve_lp(c, A, b)
