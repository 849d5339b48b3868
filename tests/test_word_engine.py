"""The descent engine for normal forms, checked against the braid-closure
oracle and against exact ring arithmetic, and the (2,3,7) computations
that braid closure could not finish.

A left descent t of g is read off the sign of coordinate t of g f0.  When an
order is not 2, 3 or infinity those coordinates are fixed-point numbers
under one error bound per word, so the bound is the one place a mistake
could enter: it is checked against the exact dual vectors of
tests/ball_oracle.py, a word too long for 64 bits is shown to need more,
and a refused first precision forces the doubled-precision fallback.
"""

import io
import math
import random
from math import isqrt, lcm

import numpy as np
import pytest
from ball_oracle import DualVectors
from braid_oracle import oracle_canonical
from cli_report import parse_report
from ra_rewrite_oracle import is_right_angled

from coxtile.cli import main
from coxtile.coxeter import (
    CoxeterSystem,
    DescentEngine,
    _fixed_cos,
    _step,
    enumerate_ball,
    reflection_cocycle,
)


def triangle(a, b, c):
    """Rank-3 system with m(0,1) = a, m(0,2) = b, m(1,2) = c (0 is infinity)."""
    return CoxeterSystem(("a", "b", "c"), ((1, a, b), (a, 1, c), (b, c, 1)))


T237 = '{"generators":["a","b","c"],"matrix":[[1,2,3],[2,1,7],[3,7,1]]}'
# rank 4 with orders infinity, 7 and 8: few braid relations, fast growth
RANK4 = CoxeterSystem(("a", "b", "c", "d"), ((1, 0, 0, 0), (0, 1, 0, 7), (0, 0, 1, 8), (0, 7, 8, 1)))

SYSTEMS = {
    "(3,3,inf)": triangle(3, 3, 0),
    "(2,3,7)": triangle(2, 3, 7),
    "(4,5,inf)": triangle(4, 5, 0),
    "(2,4,4)": triangle(2, 4, 4),
    "B3": triangle(4, 2, 3),
    "H3": triangle(5, 2, 3),
    "I2(7)": CoxeterSystem.dihedral(7),
    "hexagon": CoxeterSystem.right_angled_polygon(6),
}


def test_normal_form_mul_inv_match_braid_oracle():
    rng = random.Random(20261018)
    exactness, checked = set(), 0
    for name, system in SYSTEMS.items():
        for _ in range(100):
            word = tuple(rng.randrange(system.rank) for _ in range(rng.randrange(14)))
            nf = oracle_canonical(system, word)
            assert system.normal_form(word) == nf, (name, word)
            cut = rng.randrange(len(word) + 1)
            assert system.mul(system.normal_form(word[:cut]), word[cut:]) == nf, (name, word, cut)
            assert system.inv(word) == oracle_canonical(system, word[::-1]), (name, word)
            checked += 1
        if not is_right_angled(system):
            exactness.add(DescentEngine(system).exact)
    assert checked >= 750
    # integer coordinates (d = 1) and fixed-point ones (d > 1) were both covered
    assert exactness == {True, False}


@pytest.mark.parametrize("prec", [64, 200, 1000])
def test_fixed_cos_is_within_one(prec):
    s = 1 << prec
    closed_forms = {  # 2^prec cos(pi/m), each within 1, from integer square roots
        4: isqrt(s * s // 2),
        5: (s + isqrt(5 * s * s)) // 4,
        6: isqrt(3 * s * s // 4),
        8: isqrt((2 * s * s + isqrt(2 * s**4)) // 4),
    }
    for m, value in closed_forms.items():
        assert abs(_fixed_cos(m, prec) - value) <= 2, m
    for m in (7, 9, 56):
        assert abs(_fixed_cos(m, prec) / s - math.cos(math.pi / m)) < 1e-15


def exact_coordinates(system, word):
    """Coordinates of g f0 from the ball oracle's exact dual vectors, as
    floats, with the float error of each: coordinate t is
    sum_j c_j cos(pi j / N) in Z[zeta_2N]."""
    dual = DualVectors(system)
    f = dual.chamber
    for s in reversed(word):
        f = dual.step(f, s)
    n = lcm(1, *(m for row in system.matrix for m in row if m not in (0, 1, 2, 3)))
    d = dual.d
    out = []
    for t in range(system.rank):
        coeffs = f[t * d : t * d + d]
        value = math.fsum(c * math.cos(math.pi * j / n) for j, c in enumerate(coeffs))
        out.append((value, 1e-12 * (1 + sum(map(abs, coeffs)))))
    return out


def fold(engine, word, prec):
    """The engine's coordinates F and error bound for g f0, folded as
    DescentEngine.attempt does."""
    moves = engine.moves(prec)
    F, bound = [1 << prec] * len(engine.matrix), 0
    for s in reversed(word):
        bound = _step(F, moves[s], s, prec, bound)
    return F, bound


@pytest.mark.parametrize("name", ["(2,3,7)", "(4,5,inf)", "H3", "B3", "I2(7)", "(3,3,inf)", "rank4"])
def test_fixed_point_bounds_hold_against_exact_coordinates(name):
    system = RANK4 if name == "rank4" else SYSTEMS[name]
    engine = DescentEngine(system)
    # at 6 and 16 bits the rounding errors are large enough for floats to see
    precisions = [0] if engine.exact else [6, 16, 64]
    rng = random.Random(name)
    proven = dict.fromkeys(precisions, 0)
    total = 0
    for _ in range(80):
        word = tuple(rng.randrange(system.rank) for _ in range(rng.randrange(1, 25)))
        coordinates = exact_coordinates(system, word)
        total += len(coordinates)
        for value, slack in coordinates:
            assert abs(value) > 1 - slack  # the coefficient sum of a root
        for prec in precisions:
            F, bound = fold(engine, word, prec)
            # the one bound covers every coordinate's error
            for f, (value, slack) in zip(F, coordinates):
                assert abs(f / 2**prec - value) <= bound / 2**prec + slack, (word, prec)
                if abs(f) > bound:
                    assert (f > 0) == (value > 0)
                    proven[prec] += 1
            if engine.exact:
                assert bound == 0
    assert proven[precisions[-1]] >= 0.9 * total  # 64 bits nearly always suffice


def test_normal_form_falls_back_to_doubled_precision():
    engine = DescentEngine(RANK4)
    rng = random.Random(4)
    forced = 0
    for _ in range(6):
        word = tuple(rng.randrange(4) for _ in range(150))
        nf = oracle_canonical(RANK4, word)
        forced += engine.attempt(nf, 64) is None  # 64 bits cannot prove every sign
        assert RANK4.normal_form(word) == RANK4.normal_form(nf) == nf
        assert RANK4.inv(nf) == oracle_canonical(RANK4, nf[::-1])
    assert forced >= 3


def test_normal_form_doubles_a_refused_first_precision(monkeypatch):
    # the first attempt (64 + 2|word| bits) rarely fails, so refuse it here
    engine = DescentEngine(RANK4)
    tried = []
    real_attempt = engine.attempt

    def attempt(word, prec):
        tried.append(prec)
        return None if len(tried) == 1 else real_attempt(word, prec)

    monkeypatch.setattr(engine, "attempt", attempt)
    rng = random.Random(8)
    for length in (0, 5, 40, 120):
        word = tuple(rng.randrange(4) for _ in range(length))
        tried.clear()
        assert engine.normal_form(word) == oracle_canonical(RANK4, word)
        assert tried[:2] == [64 + 2 * length, 2 * (64 + 2 * length)]


def reflection_matrices(system):
    """Float matrices of the geometric representation, built here only:
    s(alpha_t) = alpha_t + 2cos(pi/m_st) alpha_s."""
    n = system.rank
    mats = []
    for s in range(n):
        m = np.eye(n)
        for t in range(n):
            order = system.m(s, t)
            m[s, t] += -2.0 if s == t else 2.0 * (1.0 if order == 0 else math.cos(math.pi / order))
        mats.append(m)
    return mats


def word_matrix(mats, word):
    out = np.eye(len(mats))
    for s in word:
        out = out @ mats[s]
    return out


def test_reflection_cocycle_of_a_length_30_word_in_237():
    system = SYSTEMS["(2,3,7)"]
    ball = enumerate_ball(system, 30)
    rng = random.Random(30)
    word = rng.choice([w for w in ball.words if len(w) == 30])
    entries, reduced = reflection_cocycle(system, word)
    assert reduced and len(entries) == 30
    mats = reflection_matrices(system)
    seen = []
    for i, entry in enumerate(entries):
        prefix = word[:i]
        got = word_matrix(mats, entry)
        want = word_matrix(mats, prefix + (word[i],) + prefix[::-1])
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() < 1e-9 * scale, i
        assert np.abs(got @ got - np.eye(3)).max() < 1e-9 * scale**2  # an involution
        assert all(np.abs(got - other).max() > 1e-6 for other in seen), i
        seen.append(got)
    assert len(set(entries)) == 30


def test_walls_237_radius_30_names_every_wall():
    out = io.StringIO()
    argv = ["walls", "--system", T237, "--radius", "30", "--palette", "distinct"]
    assert main(argv, out=out) == 1  # walls of one color meet at corners
    results = parse_report(out.getvalue())["results"]
    assert results["wall_count"] == len(results["walls"]) == 1275
    words = [w["canonical_word"] for w in results["walls"]]
    assert len(set(words)) == 1275
