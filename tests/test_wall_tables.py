"""Per-wall colors and orientations are lists indexed by wall id, one entry per
wall: every builder returns one, refined walls of one class at one depth
share one color object, and build_alphabet refuses a list of another length,
a wall without a color and a sign other than +1 or -1.
"""

import pytest
from rebase_oracle import rebase_parity_check

from coxtile.coxeter import CoxeterSystem
from coxtile.errors import ValidationError
from coxtile.pipeline import all_plus_resolution, alternating_resolution, build_walls
from coxtile.tiles import build_alphabet, orient_all_plus, orient_alternating, rebased_alternating
from coxtile.walls import alternating_palette, class_walk, color_walls, wall_coloring

HEXAGON = CoxeterSystem.right_angled_polygon(6)


@pytest.fixture(scope="module")
def hexagon_r5():
    return build_walls(HEXAGON, 5)


def assert_wall_table(table, wallset):
    assert type(table) is list and len(table) == len(wallset)
    assert None not in table  # every builder here covers every wall


@pytest.mark.parametrize("refine", [False, True], ids=["unrefined", "refined"])
def test_builders_return_one_entry_per_wall(hexagon_r5, refine):
    ball, ws = hexagon_r5
    palette = alternating_palette(HEXAGON)
    res = alternating_resolution(ws, palette, refine=refine)
    flips = {cls: i % 2 == 0 for i, cls in enumerate(sorted(res.class_wids, key=str))}
    flipped = alternating_resolution(ws, palette, refine=refine, flips=flips)
    plus = all_plus_resolution(ws, palette, refine=refine)
    tables = [
        res.wall_colors,
        res.orientation,
        flipped.wall_colors,
        flipped.orientation,
        plus.wall_colors,
        plus.orientation,
        orient_all_plus(ws),
        orient_alternating(ws, res.class_wids, flips),
        rebased_alternating(ws, res.class_wids, ball.id_of((1, 4))),
        rebase_parity_check(ws, res.class_wids, res.orientation, ball.id_of((2,))).orientation,
    ]
    if refine:
        tables.append(wall_coloring(ws, color_walls(ws, palette)))
    for table in tables:
        assert_wall_table(table, ws)


def test_refined_walls_at_one_depth_share_one_color(hexagon_r5):
    _, ws = hexagon_r5
    classes = color_walls(ws, alternating_palette(HEXAGON))
    colors = wall_coloring(ws, classes)
    depth = []
    for p in class_walk(ws, classes.by_color.values()).parent:
        depth.append(0 if p is None else depth[p] + 1)
    groups = {}  # (class, depth) -> the colors of its walls
    for w, (cls, d) in enumerate(zip(classes.color, depth)):
        groups.setdefault((cls, d), []).append(colors[w])
    assert len(groups) > 2 * 3
    for (cls, _d), group in groups.items():
        assert group[0][0] == cls and all(color is group[0] for color in group)


def test_build_alphabet_refuses_tables_of_another_length(hexagon_r5):
    _, ws = hexagon_r5
    res = alternating_resolution(ws, alternating_palette(HEXAGON), refine=True)
    with pytest.raises(ValidationError, match="one entry per wall"):
        build_alphabet(ws, res.wall_colors[:-1], res.orientation)
    with pytest.raises(ValidationError, match="one entry per wall"):
        build_alphabet(ws, res.wall_colors, res.orientation + [1])


@pytest.mark.parametrize(
    "table, value",
    [("colors", None), ("orientation", None), ("orientation", 0), ("orientation", 2)],
    ids=["no-color", "no-sign", "sign-0", "sign-2"],
)
def test_build_alphabet_refuses_a_wall_without_a_label(hexagon_r5, table, value):
    _, ws = hexagon_r5
    res = alternating_resolution(ws, alternating_palette(HEXAGON), refine=True)
    colors, orientation = list(res.wall_colors), list(res.orientation)
    wid = len(ws) // 3
    for w in (wid + 7, wid):  # the first wall without a label is named
        (colors if table == "colors" else orientation)[w] = value
    with pytest.raises(ValidationError, match=f"^wall {wid} has color .* and sign .*: every wall needs"):
        build_alphabet(ws, colors, orientation)
