"""Translates that walk the ShortLex tree, checked against the word-keyed
comparison they replaced (tests/translate_oracle.py), which buckets labels by
`Ball.norm` and computes every image as a normal form.

Both must give the same verdict, or raise WindowError with the same text, for
every g with |g| <= 3, for words whose inverse lies outside the ball and for
a word whose walk leaves the ball and comes back, at every depth from 0 to
the radius: on alternating hexagon tilings, refined and not, the octagon,
the constant tiling and a hand-built tiling that labels the outer sphere too.
"""

import pytest
from translate_oracle import translate_compare as oracle_compare

from coxtile.coxeter import CoxeterSystem
from coxtile.errors import WindowError
from coxtile.pipeline import alternating_resolution, build_walls
from coxtile.tiling_space import ChamberTiling, translate_compare
from coxtile.walls import alternating_palette

HEXAGON = CoxeterSystem.right_angled_polygon(6)
OCTAGON = CoxeterSystem.right_angled_polygon(8)


def outcome(compare, tiling, g, depth):
    try:
        return str(compare(tiling, g, depth))
    except WindowError as exc:
        return f"WindowError: {exc}"


def translates(ball):
    """Every g with |g| <= 3, two reduced words longer than the radius (s0 and
    s2 never commute on these polygons), and a word that leaves the ball and
    comes back to s0 s2."""
    near = ball.words[:sum(ball.sphere_sizes[:4])]
    far = [(0, 2) * (ball.radius // 2 + 1), (2, 0) * (ball.radius // 2 + 2)]
    detour = (0, 2) * ball.radius + (2, 0) * (ball.radius - 1)
    return [*near, *far, detour]


def assert_same_verdicts(tiling):
    """The outcomes, kinds only: fixed, differs or WindowError."""
    ball = tiling.ball
    seen = set()
    for g in translates(ball):
        for depth in range(ball.radius + 1):
            got = outcome(translate_compare, tiling, g, depth)
            assert got == outcome(oracle_compare, tiling, g, depth), (g, depth)
            seen.add(got.split("(")[0].split(":")[0])
    return seen


def alternating_tiling(system, radius, refine):
    ball, ws = build_walls(system, radius)
    res = alternating_resolution(ws, alternating_palette(system), refine=refine)
    return ChamberTiling.from_alphabet(ball, res.alphabet)


@pytest.mark.parametrize("radius", [5, 6, 7])
@pytest.mark.parametrize("refine", [False, True], ids=["unrefined", "refined"])
def test_hexagon_translates_match_the_oracle(radius, refine):
    seen = assert_same_verdicts(alternating_tiling(HEXAGON, radius, refine))
    assert seen == {"fixed", "differs", "WindowError"}  # fixed: g = e


def test_octagon_translates_match_the_oracle():
    assert_same_verdicts(alternating_tiling(OCTAGON, 5, False))


def test_constant_tiling_translates_match_the_oracle():
    ball, _ = build_walls(HEXAGON, 5)
    tile = tuple(("c",) for _ in range(6))
    tiling = ChamberTiling(ball, {w: tile for w in ball.words if len(w) <= ball.radius - 1})
    assert assert_same_verdicts(tiling) == {"fixed", "WindowError"}


def test_outer_sphere_labels_match_the_oracle():
    # labels by norm parity on every chamber, the outer sphere included: an
    # even translate keeps them until its images leave the ball
    ball, _ = build_walls(HEXAGON, 5)
    tiling = ChamberTiling(ball, {w: (("c", (-1) ** len(w)),) for w in ball.words})
    assert assert_same_verdicts(tiling) == {"fixed", "differs", "WindowError"}
    assert translate_compare(tiling, (), ball.radius).fixed
