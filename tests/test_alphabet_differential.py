"""The tile alphabet read off descents, checked against the builder it
replaced (tests/alphabet_oracle.py), which asks WallSet.separates for every
face's side.

Both must give the same tiles in the same order, the same tile ids, the same
chamber labels and the same excluded faces, none, on right-angled and
non-right-angled systems, for canonical, alternating, flipped, rebased and
random orientations.
The descent identity the fast path rests on, that the wall of the edge
{g, gs} separates e from g exactly when |gs| < |g|, is checked on its own
against the crossing sets `sep`, and those, with Ball.word, against a walk
from e along each chamber's word.  One wall set builds its orientation-free
face rows (WallSet.face_rows) once, for every alphabet over it.

A wall set also keeps the alphabet of its last full pass, and relabels it
for an orientation that negates whole colors of the kept one.  A wall set
that keeps an alphabet must give, call after call, what a wall set keeping
none gives: for rebases, for all-plus after alternating, for one wall's
sign negated, for an equal copy of the colors and for colors changed in
place between calls.  A None in the colors or the orientation is refused
on both, and leaves the kept alphabet as it was.
"""

import random

import pytest
from alphabet_oracle import build_alphabet as oracle_alphabet

from coxtile import tiles
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
    # also checks the parent-chain walk behind `sep` and Ball.word against a walk
    # down from e along each chamber's word, which reads no parent chain
    ball, ws = build_walls(system, radius)
    n = system.rank
    edges = 0
    for g in range(len(ball)):
        word, x, crossed = ball.words[g], 0, set()
        for s in word:
            crossed.add(ws.faces[x * n + s])
            x = ball.nbr[x * n + s]
        assert x == g and ball.word(g) == word
        assert ws.sep[g] == crossed and len(crossed) == len(word)
        for s in range(n):
            gs = ball.nbr[g * n + s]
            if gs < 0:
                continue
            edges += 1
            assert (ws.faces[g * n + s] in ws.sep[g]) == (ball.norms[gs] < ball.norms[g])
    assert edges == len(ball.edges)


def test_one_wall_set_reads_its_face_rows_once(monkeypatch):
    # alphabets of every orientation over one wall set share its face rows:
    # built on the first call, read by every later one, chamber order included
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
    assert built == [ws]


# -- the kept alphabet ------------------------------------------------------------


def full_pass(wallset, wall_colors, orientation):
    """build_alphabet on a wall set keeping no alphabet, so a full pass."""
    wallset._alphabet = None
    return build_alphabet(wallset, wall_colors, orientation)


def assert_same_tiles(got, want):
    assert repr(got.tiles) == repr(want.tiles)  # the same label objects, as reports print them
    assert list(got.tile_ids.items()) == list(want.tile_ids.items())
    assert list(got.chamber_tile.items()) == list(want.chamber_tile.items())
    assert got.excluded == want.excluded
    assert got.radius == want.radius


def seeded_rebases(ball, ws, res):
    for cid in random.Random(len(ball)).sample(range(len(ball)), 20):
        yield res.wall_colors, rebased_alternating(ws, res.class_wids, cid)


def all_plus_after_alternating(ball, ws, res):
    yield res.wall_colors, orient_all_plus(ws)


def one_wall_negated(ball, ws, res):
    for wid in (0, len(ws) // 2):
        orientation = list(res.orientation)
        orientation[wid] = -orientation[wid]
        yield res.wall_colors, orientation


def a_none_in_the_orientation(ball, ws, res):
    orientation = rebased_alternating(ws, res.class_wids, 1)
    orientation[len(ws) // 3] = None
    yield res.wall_colors, orientation  # refused
    yield res.wall_colors, rebased_alternating(ws, res.class_wids, 2)  # after the refusal


def an_equal_copy_of_the_colors(ball, ws, res):
    yield list(res.wall_colors), rebased_alternating(ws, res.class_wids, 1)


def colors_changed_in_place(ball, ws, res):
    colors = res.wall_colors  # the list the kept alphabet was built from
    colors[0] = next(c for c in colors if c != colors[0])
    yield colors, rebased_alternating(ws, res.class_wids, 1)
    yield colors, rebased_alternating(ws, res.class_wids, 2)
    colors[len(ws) // 2] = None
    yield colors, rebased_alternating(ws, res.class_wids, 3)  # refused
    colors[len(ws) // 2] = colors[len(ws) // 2 + 1]
    yield colors, rebased_alternating(ws, res.class_wids, 4)


@pytest.mark.parametrize(
    "calls",
    [
        seeded_rebases,
        all_plus_after_alternating,
        one_wall_negated,
        a_none_in_the_orientation,
        an_equal_copy_of_the_colors,
        colors_changed_in_place,
    ],
)
@pytest.mark.parametrize("refine", [False, True], ids=["unrefined", "refined"])
@pytest.mark.parametrize("system, radius", [(HEXAGON, 6), (OCTAGON, 5)], ids=["hexagon-r6", "octagon-r5"])
def test_kept_alphabet_matches_a_fresh_wall_set(system, radius, refine, calls):
    ball, ws = build_walls(system, radius)
    _, fresh = build_walls(system, radius)
    res = alternating_resolution(ws, alternating_palette(system), refine=refine)
    got = build_alphabet(ws, res.wall_colors, res.orientation)
    assert_same_tiles(got, full_pass(fresh, res.wall_colors, res.orientation))
    for colors, orientation in calls(ball, ws, res):
        if None in colors or None in orientation:  # refused, before the kept alphabet is read
            kept = ws._alphabet
            for wallset in (ws, fresh):
                with pytest.raises(ValidationError, match="every wall needs a color"):
                    build_alphabet(wallset, colors, orientation)
            assert ws._alphabet is kept
            continue
        got = build_alphabet(ws, colors, orientation)
        assert_same_tiles(got, full_pass(fresh, colors, orientation))


@pytest.mark.parametrize("refine", [False, True], ids=["unrefined", "refined"])
def test_rebases_relabel_the_kept_alphabet(refine, monkeypatch):
    # a rebase negates whole colors, so it makes no label pass; all-plus after
    # alternating negates some walls of a color and not others, so it makes one
    passes = []
    label_tables = tiles._label_tables
    monkeypatch.setattr(tiles, "_label_tables", lambda *args: passes.append(1) or label_tables(*args))
    ball, ws = build_walls(HEXAGON, 6)
    res = alternating_resolution(ws, alternating_palette(HEXAGON), refine=refine)
    build_alphabet(ws, res.wall_colors, res.orientation)
    for word in [(0,), (3,), (1, 4)]:
        build_alphabet(ws, res.wall_colors, rebased_alternating(ws, res.class_wids, ball.id_of(word)))
    assert len(passes) == 1
    build_alphabet(ws, res.wall_colors, orient_all_plus(ws))
    assert len(passes) == 2
