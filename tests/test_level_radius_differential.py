"""Every wall's level and tree parent are exact at every radius.

A class wall's level and tree parent are read off the ShortLex chain of its
least edge's near chamber, which lies inside the ball (see coxtile.walls).
So growing the ball must not change them: for every wall of a radius-r
ball, (level, tree-parent word) equals its value in the radius-R_max ball,
the wall matched by its canonical word.  Checked on named systems and on
seeded random right-angled systems with seeded proper palettes, through the
class walk and through the `walls` report, whose rows carry the same pair.
"""

import io
import json
import random

import pytest

from coxtile.cli import main
from coxtile.coxeter import CoxeterSystem, enumerate_ball
from coxtile.errors import SizeLimitError
from coxtile.walls import alternating_palette, class_walk, color_walls, enumerate_walls

HEXAGON = CoxeterSystem.right_angled_polygon(6)
PENTAGON = CoxeterSystem.right_angled_polygon(5)
OCTAGON = CoxeterSystem.right_angled_polygon(8)
INFINITE_DIHEDRAL = CoxeterSystem.infinite_dihedral()


def levels_by_word(system, palette, radius, cap=None):
    """Canonical word -> (level, tree-parent word) for every wall of the ball."""
    ws = enumerate_walls(enumerate_ball(system, radius, cap=cap))
    classes = color_walls(ws, palette)
    assert classes.disjoint
    walk = class_walk(ws, classes.by_color.values())
    names = ws.canonical_names()
    return {name: (level, None if p is None else names[p])
            for name, level, p in zip(names, walk.level, walk.parent)}


def assert_stable_under_radius_growth(system, palette, top, cap=None):
    final = levels_by_word(system, palette, top, cap)
    assert all(level >= 1 for level, _parent in final.values())
    for radius in range(1, top):
        smaller = levels_by_word(system, palette, radius, cap)
        assert smaller, f"no walls at radius {radius}"
        changed = [word for word, entry in smaller.items() if final[word] != entry]
        assert not changed, f"radius {radius} against {top}: {len(changed)} walls differ, first {changed[0]}"


NAMED = [
    pytest.param(HEXAGON, alternating_palette(HEXAGON), 8, id="hexagon-alternating"),
    pytest.param(OCTAGON, alternating_palette(OCTAGON), 6, id="octagon-alternating"),
    pytest.param(PENTAGON, dict(enumerate(PENTAGON.generators)), 8, id="pentagon-distinct"),
    pytest.param(PENTAGON, {0: "02", 2: "02", 1: "13", 3: "13", 4: "4"}, 8, id="pentagon-02-13-4"),
    pytest.param(INFINITE_DIHEDRAL, {0: "even", 1: "odd"}, 16, id="infinite-dihedral"),
    pytest.param(INFINITE_DIHEDRAL, {0: "c", 1: "c"}, 16, id="infinite-dihedral-one-class"),
]


@pytest.mark.parametrize("system, palette, top", NAMED)
def test_named_levels_stable_under_radius_growth(system, palette, top):
    assert_stable_under_radius_growth(system, palette, top)


def random_right_angled(rng, rank):
    """A right-angled system of the given rank and a proper palette of its
    commuting graph: generators are colored in a shuffled order, each by a
    random color that no commuting generator colored before it has (a new
    one when every color so far is taken)."""
    matrix = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            matrix[i][j] = matrix[j][i] = rng.choice((2, 0))
    system = CoxeterSystem(tuple(f"s{i}" for i in range(rank)), tuple(map(tuple, matrix)))
    palette, used = {}, 0
    for s in rng.sample(range(rank), rank):
        free = [c for c in range(used + 1)
                if all(palette.get(t) != c for t in range(rank) if matrix[s][t] == 2)]
        palette[s] = c = rng.choice(free)
        used = max(used, c + 1)
    return system, palette


@pytest.mark.parametrize("seed", range(48))
def test_random_right_angled_levels_stable_under_radius_growth(seed):
    rng = random.Random(seed)
    system, palette = random_right_angled(rng, 3 + seed % 5)
    top = 7
    while True:  # the largest radius up to 7 whose ball fits the cap
        try:
            enumerate_ball(system, top, cap=4000)
            break
        except SizeLimitError:
            top -= 1
    assert top >= 2
    assert_stable_under_radius_growth(system, palette, top, cap=4000)


def walls_rows(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    results = json.loads(out.getvalue())["results"]
    return code, results, {row["canonical_word"]: row for row in results["walls"]}


@pytest.mark.parametrize(
    "system, palette, top",
    [("hexagon", "alternating", 6), ("pentagon", "distinct", 6), ("polygon:8", "alternating", 5)],
)
def test_walls_report_rows_stable_under_radius_growth(system, palette, top):
    # each row of a smaller ball is the row of the same wall in the largest:
    # an int level from 1, and a tree parent that is null only at level 1
    argv = ["walls", "--system", system, "--palette", palette, "--radius"]
    code, _results, final = walls_rows(argv + [str(top)])
    assert code == 0
    for row in final.values():
        assert type(row["level"]) is int and row["level"] >= 1
        assert row["tree_parent"] is not None or row["level"] == 1
        if row["tree_parent"] is not None:
            assert final[row["tree_parent"]]["color"] == row["color"]
    for radius in range(1, top):
        code, _results, rows = walls_rows(argv + [str(radius)])
        assert code == 0 and rows
        assert all(final[word] == row for word, row in rows.items()), f"radius {radius}"


def test_crossing_classes_print_no_levels_at_any_radius():
    # a-c and b-c of (2,3,7) have orders 3 and 7: every row has a null level
    # and a null tree parent, at every radius
    system = '{"generators":["a","b","c"],"matrix":[[1,2,3],[2,1,7],[3,7,1]]}'
    for radius in range(1, 9):
        code, results, rows = walls_rows(["walls", "--system", system, "--radius", str(radius)])
        assert code == 1 and not results["classes_disjoint"] and rows
        assert all(row["level"] is None and row["tree_parent"] is None for row in rows.values())
