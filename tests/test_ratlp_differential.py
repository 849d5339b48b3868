"""solve_lp against the dense Fraction simplex it replaced, on random LPs.

The integer tableau must take the very same pivots as the Fraction tableau
(Bland's rule sees the same signs and ratios), so status, x, objective and
the pivot sequence must all match exactly.  solve_lp takes only b >= 0, so
every family draws b >= 0 and the oracle's phase 1 never runs; LPs with a
negative b_i are rejection cases in tests/test_ratlp.py.

solve_lp takes ints.  The oracle gets each LP as drawn, rational in the
`fractional` family, and solve_lp gets it with each row (A_i | b_i), and c,
scaled by the lcm of its denominators.  By the scaling argument of ratlp's
docstring that moves no pivot and leaves x as it is, and the objective
comes back times c's factor.
"""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import dense_lp_oracle
import pytest

from coxtile import ratlp

N_LPS = 2500
KINDS = ("random", "degenerate", "unbounded", "cone", "fractional")


def _cone_lp(rng):
    """An LP shaped like classify_balance's: tile rows [-v | v] (with a 1 for
    the positivity variable t, or without) at right-hand side 0, then a unit
    box on every variable; the origin is feasible and the box bounds it."""
    k = rng.randint(1, 3)
    positivity = rng.random() < 0.5
    extra = [1] if positivity else []
    A = []
    for _ in range(rng.randint(1, 5)):
        v = [rng.randint(-2, 2) for _ in range(k)]
        A.append([-x for x in v] + v + extra)
    width = 2 * k + len(extra)
    b = [0] * len(A) + [1] * width
    A += [[int(i == j) for i in range(width)] for j in range(width)]
    if positivity:
        c = [0] * (2 * k) + [1]
    else:
        i, sign = rng.randrange(k), rng.choice([1, -1])
        c = [0] * (2 * k)
        c[i], c[k + i] = sign, -sign
    return c, A, b


def _random_lp(rng, kind):
    if kind == "cone":
        return _cone_lp(rng)
    n = rng.randint(1, 5)
    m = rng.randint(1, 6)
    A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    b = [rng.randint(0, 6) for _ in range(m)]
    c = [rng.randint(-3, 3) for _ in range(n)]
    if kind == "degenerate":
        # zero right-hand sides, duplicated and scaled rows
        b = [0 if rng.random() < 0.7 else v for v in b]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(m)
            k = rng.choice([1, 2])
            A.append([k * v for v in A[i]])
            b.append(k * b[i])
    elif kind == "unbounded":
        # a profitable column no constraint can stop
        j = rng.randrange(n)
        for row in A:
            row[j] = -abs(row[j])
        c[j] = rng.randint(1, 3)
    elif kind == "fractional":
        A = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(m)]
        c = [Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(n)]
    return c, A, b


def _scaled(values):
    """values times the lcm of their denominators, as ints, and that factor."""
    k = lcm(*(Fraction(v).denominator for v in values))
    return [int(v * k) for v in values], k


def _integer_lp(c, A, b):
    """(c, A, b) with c and each row (A_i | b_i) scaled to ints, and c's factor."""
    c, k = _scaled(c)
    rows = [_scaled(Ai + [bi])[0] for Ai, bi in zip(A, b)]
    return c, [row[:-1] for row in rows], [row[-1] for row in rows], k


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
    cone_weights = 0
    scales = 0  # LPs whose c was scaled
    for case in range(N_LPS):
        kind = KINDS[case % len(KINDS)]
        c, A, b = _random_lp(rng, kind)
        want, want_pivots = _pivots(dense_lp_oracle, monkeypatch, c, A, b)
        *integer_lp, scale = _integer_lp(c, A, b)
        got, got_pivots = _pivots(ratlp, monkeypatch, *integer_lp)
        where = f"case {case} ({kind}): c={c} A={A} b={b}"
        assert got.status == want.status, where
        assert got.x == want.x, where
        assert (got.objective if got.objective is None else got.objective / scale) == want.objective, where
        assert got_pivots == want_pivots, where
        scales += scale > 1
        statuses[(kind, got.status)] += 1
        cone_weights += kind == "cone" and got.objective > 0
    # every family produced what it was built for; the boxed cones are all
    # optimal, and often the optimum leaves the origin, as a witness does
    assert statuses[("unbounded", "unbounded")] > 100
    assert statuses[("cone", "optimal")] == N_LPS // len(KINDS)
    assert all(statuses[(kind, "optimal")] > 50 for kind in ("random", "degenerate", "fractional"))
    assert cone_weights > N_LPS // len(KINDS) // 3
    assert scales > N_LPS // len(KINDS) // 2


@pytest.mark.parametrize(
    "c, A, b",
    [
        ([1], [], []),  # no constraints, profitable variable
        ([-1, 0], [], []),  # no constraints, nothing to gain
        ([1, 1], [[0, 0]], [0]),  # 0 <= 0 stops nothing
        ([1, 1], [[1, 1], [-1, -1]], [0, 0]),  # x + y = 0 as two rows: only the origin
    ],
)
def test_edge_cases_match_dense_oracle(c, A, b):
    want = dense_lp_oracle.solve_lp(c, A, b)
    got = ratlp.solve_lp(c, A, b)
    assert (got.status, got.x, got.objective) == (want.status, want.x, want.objective)
