"""solve_lp against the dense Fraction simplex it replaced, on random LPs.

The integer tableau must take the very same pivots as the Fraction tableau
(Bland's rule sees the same signs and ratios), so status, x, objective and
the pivot sequence must all match exactly.
"""

import random
from collections import Counter
from fractions import Fraction

import dense_lp_oracle
import pytest

from coxtile import ratlp

N_LPS = 2500
KINDS = ("mixed_rhs", "degenerate", "unbounded", "infeasible", "fractional")


def _random_lp(rng, kind):
    n = rng.randint(1, 5)
    m = rng.randint(1, 6)
    A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    b = [rng.randint(-4, 6) for _ in range(m)]
    c = [rng.randint(-3, 3) for _ in range(n)]
    if kind == "degenerate":
        # zero right-hand sides, duplicated and scaled rows
        b = [0 if rng.random() < 0.7 else v for v in b]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(m)
            k = rng.choice([1, 2, -1])
            A.append([k * v for v in A[i]])
            b.append(k * b[i])
    elif kind == "unbounded":
        # a profitable column no constraint can stop
        j = rng.randrange(n)
        for row in A:
            row[j] = -abs(row[j])
        c[j] = rng.randint(1, 3)
    elif kind == "infeasible":
        # sum of nonnegative terms <= a negative number
        A.append([rng.randint(0, 2) for _ in range(n)])
        b.append(rng.randint(-3, -1))
    elif kind == "fractional":
        A = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-5, 9), rng.randint(1, 4)) for _ in range(m)]
        c = [Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(n)]
    return c, A, b


def _pivots(module, monkeypatch, c, A, b):
    seq = []
    pivot = module._Tableau.pivot

    def recording(self, r, col):
        seq.append((r, col))
        return pivot(self, r, col)

    with monkeypatch.context() as mp:
        mp.setattr(module._Tableau, "pivot", recording)
        res = module.solve_lp(c, A, b)
    return res, seq


def test_solve_lp_matches_dense_oracle(monkeypatch):
    rng = random.Random(20061108)
    statuses = Counter()
    phase1 = 0
    for case in range(N_LPS):
        kind = KINDS[case % len(KINDS)]
        c, A, b = _random_lp(rng, kind)
        want, want_pivots = _pivots(dense_lp_oracle, monkeypatch, c, A, b)
        got, got_pivots = _pivots(ratlp, monkeypatch, c, A, b)
        where = f"case {case} ({kind}): c={c} A={A} b={b}"
        assert got.status == want.status, where
        assert got.x == want.x, where
        assert got.objective == want.objective, where
        assert got_pivots == want_pivots, where
        statuses[(kind, got.status)] += 1
        phase1 += any(v < 0 for v in b)
    # every family produced what it was built for, and phase 1 ran often
    assert statuses[("unbounded", "unbounded")] > 100
    assert statuses[("infeasible", "infeasible")] == N_LPS // len(KINDS)
    assert all(statuses[(kind, "optimal")] > 50 for kind in ("mixed_rhs", "degenerate", "fractional"))
    assert phase1 > N_LPS // 2


@pytest.mark.parametrize(
    "c, A, b",
    [
        ([1], [], []),  # no constraints, profitable variable
        ([-1, 0], [], []),  # no constraints, nothing to gain
        ([1, 1], [[0, 0]], [-1]),  # 0 <= -1
        ([1, 1], [[1, 1], [-1, -1]], [2, -2]),  # an equality as two rows
        ([2.5, 1], [[0.5, 1]], [1.25]),  # float input converts exactly
    ],
)
def test_edge_cases_match_dense_oracle(c, A, b):
    want = dense_lp_oracle.solve_lp(c, A, b)
    got = ratlp.solve_lp(c, A, b)
    assert (got.status, got.x, got.objective) == (want.status, want.x, want.objective)
