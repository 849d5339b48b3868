"""Region-tree peeling and wall trees against the round-based versions they
replaced (tests/peel_oracle.py).

The oracle asks WallSet.separating_walls for each wall and rescans every
active wall per round; coxtile.walls names each chamber's region by the last
class wall its geodesic crosses, checks every crossed class edge against
that table, and reads levels and trees off the region tree.  Levels and
trees (with their levels) must agree on every disjoint class and base tried.
On a class whose walls are not nested the oracle may still peel, or stall,
while the edge check rejects the class from every base.
"""

import io
import random

import peel_oracle
import pytest

import coxtile.walls
from coxtile.cli import main
from coxtile.coxeter import CoxeterSystem, enumerate_ball
from coxtile.errors import StructureError
from coxtile.pipeline import alternating_resolution
from coxtile.tiles import rebased_alternating
from coxtile.walls import (
    alternating_palette,
    build_wall_tree,
    color_walls,
    enumerate_walls,
    peel_levels,
    wall_coloring,
)

HEXAGON = CoxeterSystem.right_angled_polygon(6)
PENTAGON = CoxeterSystem.right_angled_polygon(5)
OCTAGON = CoxeterSystem.right_angled_polygon(8)
DECAGON = CoxeterSystem.right_angled_polygon(10)


def make(system, radius):
    ball = enumerate_ball(system, radius)
    return ball, enumerate_walls(ball)


def distinct(system):
    return {s: system.generators[s] for s in range(system.rank)}


def outcome(peel, ws, wids, base=0):
    """Levels, or the StructureError message when peeling stalls."""
    try:
        return peel(ws, wids, base)
    except StructureError as exc:
        return ("StructureError", str(exc))


def tree_outcome(build, ws, wids, base=0):
    try:
        t = build(ws, wids, base)
    except StructureError as exc:
        return ("StructureError", str(exc))
    return t.vertices, t.edges, t.root, t.parent, t.depth, t.levels


def assert_same_tree(ws, wids, base=0):
    new = tree_outcome(build_wall_tree, ws, wids, base)
    assert new == tree_outcome(peel_oracle.build_wall_tree, ws, wids, base)
    return new


# (name, system, palette, largest radius): the larger polygons grow faster
ORACLE_INPUTS = [
    ("hexagon-alternating", HEXAGON, alternating_palette(HEXAGON), 6),
    ("hexagon-distinct", HEXAGON, distinct(HEXAGON), 6),
    ("pentagon-distinct", PENTAGON, distinct(PENTAGON), 6),
    ("octagon-alternating", OCTAGON, alternating_palette(OCTAGON), 5),
    ("decagon-alternating", DECAGON, alternating_palette(DECAGON), 4),
]


@pytest.mark.parametrize(
    "system, palette, radius",
    [
        pytest.param(system, palette, radius, id=f"{radius}-{name}")
        for radius in range(1, 7)
        for name, system, palette, top in ORACLE_INPUTS
        if radius <= top
    ],
)
def test_levels_and_trees_match_oracle(system, palette, radius):
    ball, ws = make(system, radius)
    classes = color_walls(ws, palette)
    assert classes.disjoint
    for wids in classes.by_color.values():
        levels = peel_levels(ws, wids)
        assert levels == peel_oracle.peel_levels(ws, wids)
        assert set(levels) == set(wids)
        assert assert_same_tree(ws, wids)[0] == sorted(wids)


@pytest.mark.parametrize("radius", [4, 5])
def test_refined_classes_match_oracle(radius):
    ball, ws = make(HEXAGON, radius)
    color_of, _trees, _palette = wall_coloring(ws, color_walls(ws, alternating_palette(HEXAGON)))
    refined = {}
    for wid, color in color_of.items():
        refined.setdefault(color, []).append(wid)
    assert len(refined) > 2
    for wids in refined.values():
        assert outcome(peel_levels, ws, wids) == outcome(peel_oracle.peel_levels, ws, wids)


def test_rebased_levels_match_oracle():
    # the bases rebased_alternating uses (norm <= 2) plus seeded deeper chambers
    ball, ws = make(HEXAGON, 5)
    classes = color_walls(ws, alternating_palette(HEXAGON))
    rng = random.Random(5)
    bases = [c for c in range(1, len(ball)) if ball.norms[c] <= 2]
    bases += rng.sample(range(len(bases) + 1, len(ball)), 12)
    for wids in classes.by_color.values():
        for base in bases:
            assert outcome(peel_levels, ws, wids, base) == outcome(peel_oracle.peel_levels, ws, wids, base)
            assert_same_tree(ws, wids, base)


@pytest.mark.parametrize("refine", [False, True], ids=["unrefined", "refined"])
@pytest.mark.parametrize("system, radius", [(HEXAGON, 6), (OCTAGON, 5)], ids=["hexagon-6", "octagon-5"])
def test_rebased_alternating_matches_oracle_repeeling(system, radius, refine):
    # the closed-form sign per class against levels re-peeled by the oracle
    # from the new base, each wall's side taken from crossing parity
    ball, ws = make(system, radius)
    res = alternating_resolution(ws, alternating_palette(system), refine=refine)
    trees = dict(ws._tree_cache)
    for base in random.Random(radius).sample(range(1, len(ball)), 25):
        expected = {}
        for wids in res.class_wids.values():
            for w, level in peel_oracle.peel_levels(ws, wids, base).items():
                expected[w] = (-1 if ws.separates(w, 0, base) else 1) * (-1) ** level
        assert rebased_alternating(ws, res.class_wids, base) == expected
    # every rebase reused the trees the resolution built
    assert ws._tree_cache.keys() == trees.keys()


@pytest.mark.parametrize("end", ["far", "near"])
def test_corrupt_face_trips_the_edge_check(end):
    # relabel the geodesic edge into one end of a crossed edge of each sampled
    # wall: the far end's region then misses the wall (given the other class's
    # label), or the near end's region is a class wall other than the region on
    # the near side of the wall's least edge, which lies outside the relabelled subtree
    ball, ws = make(HEXAGON, 4)
    classes = color_walls(ws, alternating_palette(HEXAGON))
    wids, other = classes.by_color["a"], classes.by_color["b"][0]
    assert peel_levels(ws, wids) == peel_oracle.peel_levels(ws, wids)
    region = coxtile.walls.class_tree(ws, wids)[0]
    n = HEXAGON.rank
    spread = [w for w in wids if ws.walls[w].edges[0][0] < ws.walls[w].edges[-1][0]]
    for w in random.Random(4).sample(spread, 20):
        if end == "far":
            g, s = next((g, s) for g, s in ws.walls[w].edges if ball.words[ball.nbr[g * n + s]][-1] == s)
            x, label = ball.nbr[g * n + s], other
        else:
            x = ws.walls[w].edges[-1][0]
            t = ball.words[x][-1]
            label = min(set(wids) - {w, ws.faces[x * n + t], region[ws.walls[w].edges[0][0]]})
        t = ball.words[x][-1]
        broken = enumerate_walls(ball)
        broken.faces[x * n + t] = broken.faces[ball.nbr[x * n + t] * n + t] = label
        with pytest.raises(StructureError, match="separators of wall [0-9]+ are not nested"):
            peel_levels(broken, wids)


def test_single_colour_class_matches_oracle():
    # every wall in one class: walls meet at corners, so the class is not disjoint
    ball, ws = make(HEXAGON, 4)
    classes = color_walls(ws, dict.fromkeys(range(6), "x"))
    (wids,) = classes.by_color.values()
    assert len(wids) == 336 and not classes.disjoint
    # the round-based oracle peels from some bases and stalls from others
    oracle = [outcome(peel_oracle.peel_levels, ws, wids, base) for base in (0, 1, 7, 40)]
    assert [max(r.values()) if isinstance(r, dict) else r[0] for r in oracle] == [4, 5, "StructureError", 7]
    # the edge check rejects the class from every base, at the first wall whose edges disagree
    for base in (0, 1, 7, 40):
        with pytest.raises(StructureError, match="separators of wall 0 are not nested"):
            peel_levels(ws, wids, base)
    with pytest.raises(StructureError, match="separators of wall 0 are not nested"):
        build_wall_tree(ws, wids)
    # the oracle's own nesting check rejects its tree, naming another wall
    assert tree_outcome(peel_oracle.build_wall_tree, ws, wids) == (
        "StructureError", "separators of wall 24 are not nested; class is not disjoint")


def test_walls_cli_reads_each_class_once(monkeypatch):
    sizes = []
    real = coxtile.walls.class_tree

    def counting(wallset, class_wids):
        sizes.append(len(class_wids))
        return real(wallset, class_wids)

    monkeypatch.setattr(coxtile.walls, "class_tree", counting)
    argv = ["walls", "--system", "hexagon", "--radius", "5", "--palette", "alternating"]
    assert main(argv, out=io.StringIO()) == 0
    ball, ws = make(HEXAGON, 5)
    classes = color_walls(ws, alternating_palette(HEXAGON))
    assert sorted(sizes) == sorted(map(len, classes.by_color.values()))


def plant_cycle(ws, cycle):
    """Make each wall of `cycle` separate the next one's near side from e, by
    relabelling the last edge of that chamber's geodesic in `faces`, so the
    blocker graph has that cycle; both versions read it from `faces` (the
    oracle through separating_walls)."""
    ball, n = ws.ball, ws.ball.system.rank
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        near = ws.walls[b].edges[0][0]
        t = ball.words[near][-1]
        ws.faces[near * n + t] = ws.faces[ball.nbr[near * n + t] * n + t] = a


def pick_walls(ws, wids, count):
    """Class walls with distinct near chambers other than e, so that each
    plant changes the separators of one picked wall only."""
    picked, nears = [], set()
    for w in sorted(wids, reverse=True):
        near = ws.walls[w].edges[0][0]
        if near and near not in nears:
            picked.append(w)
            nears.add(near)
        if len(picked) == count:
            return picked
    raise AssertionError("class too small to pick from")


@pytest.mark.parametrize("length", [2, 3])
def test_cyclic_blockers_stall_both_versions(length):
    # the oracle stalls on the cycle; the region tree cannot hold it, so the edge check fails
    ball, ws = make(HEXAGON, 4)
    wids = color_walls(ws, alternating_palette(HEXAGON)).by_color["a"]
    plant_cycle(ws, pick_walls(ws, wids, length))
    with pytest.raises(StructureError, match="peeling stalled"):
        peel_oracle.peel_levels(ws, wids)
    with pytest.raises(StructureError, match="separators of wall [0-9]+ are not nested"):
        peel_levels(ws, wids)


def test_cycle_through_separating_walls_stalls_oracle(monkeypatch):
    ball, ws = make(HEXAGON, 3)
    wids = color_walls(ws, alternating_palette(HEXAGON)).by_color["a"]
    a, b = pick_walls(ws, wids, 2)
    real = type(ws).separating_walls

    def cyclic(self, wid, base=0):
        return {a: frozenset({b}), b: frozenset({a})}.get(wid, real(self, wid, base))

    monkeypatch.setattr(type(ws), "separating_walls", cyclic)
    with pytest.raises(StructureError, match="peeling stalled"):
        peel_oracle.peel_levels(ws, wids)
    # the same cycle planted where the region pass reads it
    monkeypatch.undo()
    plant_cycle(ws, [a, b])
    with pytest.raises(StructureError, match="separators of wall [0-9]+ are not nested"):
        peel_levels(ws, wids)
