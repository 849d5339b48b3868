"""One-pass peeling and wall trees against the round-based versions they
replaced (tests/peel_oracle.py).

The oracle asks WallSet.separating_walls for each wall and rescans every
active wall per round; coxtile.walls reads each wall's in-class separators
once from `sep`, layers the blocker graph in one pass and reads the tree off
those layers.  Levels, trees (with their levels) and the "peeling stalled"
StructureError must agree on every class tried.
"""

import io
import random

import peel_oracle
import pytest

import coxtile.walls
from coxtile.cli import main
from coxtile.coxeter import CoxeterSystem, enumerate_ball
from coxtile.errors import StructureError
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


@pytest.mark.parametrize(
    "system, palette",
    [(HEXAGON, alternating_palette(HEXAGON)), (HEXAGON, distinct(HEXAGON)), (PENTAGON, distinct(PENTAGON))],
    ids=["hexagon-alternating", "hexagon-distinct", "pentagon-distinct"],
)
@pytest.mark.parametrize("radius", range(1, 7))
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


def test_single_colour_class_matches_oracle():
    # every wall in one class: walls meet at corners, so the class is not disjoint
    ball, ws = make(HEXAGON, 4)
    classes = color_walls(ws, dict.fromkeys(range(6), "x"))
    (wids,) = classes.by_color.values()
    assert len(wids) == 336 and not classes.disjoint
    assert outcome(peel_levels, ws, wids) == outcome(peel_oracle.peel_levels, ws, wids)
    for base in (1, 7, 40):
        assert outcome(peel_levels, ws, wids, base) == outcome(peel_oracle.peel_levels, ws, wids, base)
    # the nesting check rejects the class; from other bases the two versions may name another wall
    with pytest.raises(StructureError, match="separators of wall 24 are not nested"):
        build_wall_tree(ws, wids)
    assert assert_same_tree(ws, wids)[0] == "StructureError"


def test_walls_cli_reads_each_class_once(monkeypatch):
    sizes = []
    real = coxtile.walls._class_chains

    def counting(wallset, class_wids, base):
        sizes.append(len(class_wids))
        return real(wallset, class_wids, base)

    monkeypatch.setattr(coxtile.walls, "_class_chains", counting)
    argv = ["walls", "--system", "hexagon", "--radius", "5", "--palette", "alternating"]
    assert main(argv, out=io.StringIO()) == 0
    ball, ws = make(HEXAGON, 5)
    classes = color_walls(ws, alternating_palette(HEXAGON))
    assert sorted(sizes) == sorted(map(len, classes.by_color.values()))


def plant_cycle(ws, cycle):
    """Make each wall of `cycle` separate the next one's near side from e,
    so the blocker graph has that cycle; both versions read it from `sep`
    (the oracle through separating_walls)."""
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        near = ws.walls[b].edges[0][0]
        ws.sep[near] = ws.sep[near] | {a}


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
    ball, ws = make(HEXAGON, 4)
    wids = color_walls(ws, alternating_palette(HEXAGON)).by_color["a"]
    plant_cycle(ws, pick_walls(ws, wids, length))
    for peel in (peel_levels, peel_oracle.peel_levels):
        with pytest.raises(StructureError, match="peeling stalled"):
            peel(ws, wids)
    assert outcome(peel_levels, ws, wids) == outcome(peel_oracle.peel_levels, ws, wids)


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
    # the same cycle planted where the one-pass peeling reads it
    monkeypatch.undo()
    plant_cycle(ws, [a, b])
    with pytest.raises(StructureError, match="peeling stalled"):
        peel_levels(ws, wids)
