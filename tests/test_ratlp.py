from fractions import Fraction

import pytest

from coxtile import ratlp
from coxtile.errors import StructureError
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


def test_infeasible():
    # x <= -1 with x >= 0
    res = solve_lp([1], [[1]], [-1])
    assert res.status == "infeasible"


def test_negative_rhs_feasible():
    # x >= 2 written as -x <= -2, maximize -x: optimum at x = 2
    res = solve_lp([-1], [[-1]], [-2])
    assert res.status == "optimal"
    assert res.objective == -2
    assert res.x == [2]


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate
    c = [Fraction(3, 4), -150, Fraction(1, 50), -6]
    A = [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0],
    ]
    b = [0, 0, 1]
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    assert res.objective == Fraction(1, 20)


def test_mixed_constraints():
    # max 2x + 3y s.t. x + y <= 4, x >= 1 (as -x <= -1), y <= 2
    res = solve_lp([2, 3], [[1, 1], [-1, 0], [0, 1]], [4, -1, 2])
    assert res.status == "optimal"
    assert res.objective == 2 * 2 + 3 * 2
    assert res.x == [2, 2]


def test_redundant_equality_like_rows():
    # x <= 1 twice plus x >= 1: optimum pinned at 1
    res = solve_lp([1], [[1], [1], [-1]], [1, 1, -1])
    assert res.status == "optimal"
    assert res.objective == 1


def test_solution_satisfies_constraints():
    c = [1, 2, -1]
    A = [[1, 1, 1], [2, 0, 1], [-1, 3, 0], [0, -1, -1]]
    b = [10, 8, 5, -2]
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    for Ai, bi in zip(A, b):
        assert sum(a * x for a, x in zip(Ai, res.x)) <= bi
    assert all(x >= 0 for x in res.x)


def test_phase1_status_is_checked(monkeypatch):
    # phase 1 is bounded by construction; a solver that says otherwise must
    # raise, not return a verdict (and not rely on a stripped assert)
    monkeypatch.setattr(ratlp._Tableau, "run", lambda self, ncols: "unbounded")
    with pytest.raises(StructureError, match="phase 1"):
        solve_lp([-1], [[-1]], [-2])
