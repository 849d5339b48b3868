"""The tile alphabet read off descents, checked against the builder it
replaced (tests/alphabet_oracle.py), which asks WallSet.separates for every
face's side.

Both must give the same tiles in the same order, the same tile ids, the same
chamber labels and the same excluded faces, on right-angled and
non-right-angled systems, for canonical, alternating, flipped, rebased and
random orientations, and for colorings or orientations that leave walls out.
The descent identity the fast path rests on, that the wall of the edge
{g, gs} separates e from g exactly when |gs| < |g|, is checked on its own
against the crossing sets `sep`.  One wall set builds its orientation-free
face rows (WallSet.face_rows) once, for every alphabet over it.
"""

import random

import pytest
from alphabet_oracle import build_alphabet as oracle_alphabet

from coxtile.coxeter import CoxeterSystem
from coxtile.errors import ValidationError
from coxtile.pipeline import alternating_resolution, build_walls
from coxtile.tiles import build_alphabet, orient_all_plus, orient_alternating, rebased_alternating
from coxtile.walls import WallSet, alternating_palette, color_walls

HEXAGON = CoxeterSystem.right_angled_polygon(6)
OCTAGON = CoxeterSystem.right_angled_polygon(8)
TRIANGLE_33INF = CoxeterSystem(("a", "b", "c"), ((1, 3, 3), (3, 1, 0), (3, 0, 1)))
TRIANGLE_237 = CoxeterSystem(("a", "b", "c"), ((1, 2, 3), (2, 1, 7), (3, 7, 1)))
RANK4 = CoxeterSystem(("a", "b", "c", "d"), ((1, 0, 0, 0), (0, 1, 0, 7), (0, 0, 1, 8), (0, 7, 8, 1)))


def as_map(table):
    # the oracle's wall id -> entry map, without the walls left out (None)
    return {w: x for w, x in enumerate(table) if x is not None}


def assert_same_alphabet(wallset, wall_colors, orientation):
    got = build_alphabet(wallset, wall_colors, orientation)
    want = oracle_alphabet(wallset, as_map(wall_colors), as_map(orientation))
    assert got.tiles == want.tiles
    assert list(got.tile_ids.items()) == list(want.tile_ids.items())
    assert list(got.chamber_tile.items()) == list(want.chamber_tile.items())
    assert got.excluded == want.excluded
    assert got.radius == want.radius
    return got


def distinct_colors(wallset):
    system = wallset.ball.system
    return color_walls(wallset, {s: system.generators[s] for s in range(system.rank)}).color


@pytest.mark.parametrize("radius", range(1, 7))
@pytest.mark.parametrize("refine", [False, True], ids=["unrefined", "refined"])
def test_hexagon_resolutions_match_the_oracle(radius, refine):
    _, ws = build_walls(HEXAGON, radius)
    res = alternating_resolution(ws, alternating_palette(HEXAGON), refine=refine)
    assert_same_alphabet(ws, res.wall_colors, res.orientation)
    assert_same_alphabet(ws, res.wall_colors, orient_all_plus(ws))
    rng = random.Random(radius * 2 + refine)
    for _ in range(3):
        flips = {cls: rng.random() < 0.5 for cls in res.class_wids}
        assert_same_alphabet(ws, res.wall_colors, orient_alternating(ws, res.class_wids, flips))


@pytest.mark.parametrize("refine", [False, True], ids=["unrefined", "refined"])
def test_hexagon_rebased_alphabets_match_the_oracle(refine):
    ball, ws = build_walls(HEXAGON, 6)
    res = alternating_resolution(ws, alternating_palette(HEXAGON), refine=refine)
    chambers = [cid for cid in range(len(ball)) if ball.norms[cid] <= 2]
    assert len(chambers) == 1 + 6 + 24
    for cid in chambers:
        ori = rebased_alternating(ws, res.class_wids, cid)
        assert_same_alphabet(ws, res.wall_colors, ori)


def test_octagon_matches_the_oracle():
    _, ws = build_walls(OCTAGON, 4)
    for refine in (False, True):
        res = alternating_resolution(ws, alternating_palette(OCTAGON), refine=refine)
        assert_same_alphabet(ws, res.wall_colors, res.orientation)


@pytest.mark.parametrize(
    "system, radius", [(TRIANGLE_33INF, 8), (TRIANGLE_237, 10)], ids=["33inf-r8", "237-r10"]
)
def test_triangle_groups_match_the_oracle(system, radius):
    _, ws = build_walls(system, radius)
    colors = distinct_colors(ws)
    alpha = assert_same_alphabet(ws, colors, orient_all_plus(ws))
    assert len(alpha) > 1
    rng = random.Random(radius)
    for _ in range(3):
        ori = [rng.choice((1, -1)) for w in ws.walls]
        assert_same_alphabet(ws, colors, ori)


def test_walls_left_out_are_excluded_alike():
    _, ws = build_walls(HEXAGON, 5)
    res = alternating_resolution(ws, alternating_palette(HEXAGON), refine=True)
    rng = random.Random(5)
    dropped = set(rng.sample(range(len(ws)), 40))
    colors = [None if w in dropped else c for w, c in enumerate(res.wall_colors)]
    alpha = assert_same_alphabet(ws, colors, res.orientation)
    assert alpha.excluded and alpha.chamber_tile
    unoriented = [None if w in dropped else o for w, o in enumerate(res.orientation)]
    alpha = assert_same_alphabet(ws, res.wall_colors, unoriented)
    assert alpha.excluded and alpha.chamber_tile
    # a chamber whose every face is left out is excluded at its first face
    alpha = assert_same_alphabet(ws, [None] * len(ws), res.orientation)
    assert not alpha.tiles and (0, 0) in alpha.excluded


def test_colors_that_print_alike_are_refused():
    # numbered labels keep the string-key order only when the keys differ
    _, ws = build_walls(HEXAGON, 2)
    colors = [1 if w.wid % 2 else "1" for w in ws.walls]
    with pytest.raises(ValidationError, match="print alike"):
        build_alphabet(ws, colors, orient_all_plus(ws))


@pytest.mark.parametrize(
    "system, radius",
    [(HEXAGON, 6), (TRIANGLE_33INF, 10), (TRIANGLE_237, 12), (RANK4, 5)],
    ids=["hexagon-r6", "33inf-r10", "237-r12", "rank4-r5"],
)
def test_face_side_is_a_descent(system, radius):
    ball, ws = build_walls(system, radius)
    n = system.rank
    edges = 0
    for g in range(len(ball)):
        for s in range(n):
            gs = ball.nbr[g * n + s]
            if gs < 0:
                continue
            edges += 1
            assert (ws.faces[g * n + s] in ws.sep[g]) == (ball.norms[gs] < ball.norms[g])
    assert edges == len(ball.edges)


def test_one_wall_set_reads_its_face_rows_once(monkeypatch):
    # alphabets of every orientation over one wall set share its face rows:
    # built on the first call, read by every later one, excluded faces and
    # chamber order included
    built = []
    rows = WallSet.face_rows  # the cached_property itself
    monkeypatch.setattr(rows, "func", lambda ws, build=rows.func: built.append(ws) or build(ws))
    ball, ws = build_walls(HEXAGON, 6)
    res = alternating_resolution(ws, alternating_palette(HEXAGON), refine=True)
    assert_same_alphabet(ws, res.wall_colors, res.orientation)
    assert_same_alphabet(ws, res.wall_colors, orient_all_plus(ws))
    for word in [(0,), (3,), (1, 4)]:
        ori = rebased_alternating(ws, res.class_wids, ball.id_of(word))
        assert_same_alphabet(ws, res.wall_colors, ori)
    dropped = set(random.Random(6).sample(range(len(ws)), 40))
    colors = [None if w in dropped else c for w, c in enumerate(res.wall_colors)]
    alpha = assert_same_alphabet(ws, colors, res.orientation)
    assert alpha.excluded and alpha.chamber_tile
    assert not assert_same_alphabet(ws, res.wall_colors, res.orientation).excluded
    assert built == [ws]
