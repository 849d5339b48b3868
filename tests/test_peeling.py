"""Levels and wall trees from the walk up the parent chain, against the
round-based peeling (tests/peel_oracle.py) and the class forest
(tests/forest_oracle.py) they replaced.

The round-based oracle asks WallSet.separating_walls for each wall and
rescans every active wall per round; the forest oracle names each chamber's
region by the last class wall its geodesic crosses and checks every crossed
class edge against that table; coxtile.walls walks up from each class wall's
near chamber to the first face of its class.  Levels and trees (with their
levels) must agree on every disjoint class tried.  The library peels from e
only; rebased signs come from the parity of the class faces on the base's
chain (tiles.rebased_alternating), checked here against the oracle's peeling
from other bases.  A class the Coxeter matrix cannot certify disjoint is
refused before any walk; corrupted tables, which the walk reads without
complaint, trip the forest oracle's edge check, while the round-based oracle
may still peel, or stall.
"""

import io
import json
import random

import forest_oracle
import peel_oracle
import pytest

import coxtile.walls
from coxtile.cli import main
from coxtile.coxeter import CoxeterSystem, enumerate_ball
from coxtile.errors import StructureError
from coxtile.pipeline import alternating_resolution
from coxtile.sequences import square_free_prefix
from coxtile.tiles import orient_alternating, rebased_alternating
from coxtile.walls import (
    ClassWalk,
    alternating_palette,
    build_wall_tree,
    class_walk,
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


def outcome(peel, *args):
    """Levels, or the StructureError message when peeling stalls."""
    try:
        return peel(*args)
    except StructureError as exc:
        return ("StructureError", str(exc))


def tree_outcome(build, ws, wids):
    try:
        t = build(ws, wids)
    except StructureError as exc:
        return ("StructureError", str(exc))
    return t.vertices, t.edges, t.root, t.parent, t.depth, t.levels


def assert_same_tree(ws, wids):
    new = tree_outcome(build_wall_tree, ws, wids)
    assert new == tree_outcome(peel_oracle.build_wall_tree, ws, wids)
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
    color_of = wall_coloring(ws, color_walls(ws, alternating_palette(HEXAGON)))
    refined = {}
    for wid, color in enumerate(color_of):
        refined.setdefault(color, []).append(wid)
    assert len(refined) > 2
    for wids in refined.values():
        assert outcome(peel_levels, ws, wids) == outcome(peel_oracle.peel_levels, ws, wids)


@pytest.mark.parametrize("refine", [False, True], ids=["unrefined", "refined"])
@pytest.mark.parametrize("system, radius", [(HEXAGON, 6), (OCTAGON, 5)], ids=["hexagon-6", "octagon-5"])
def test_rebased_alternating_matches_oracle_repeeling(system, radius, refine, monkeypatch):
    # the closed-form sign per class against levels re-peeled by the oracle
    # from the new base, each wall's side taken from crossing parity; and the
    # rebase is the alternating rule with the one flip per class that the
    # oracle's levels from e and from the base give
    walks = count_walks(monkeypatch)
    ball, ws = make(system, radius)
    res = alternating_resolution(ws, alternating_palette(system), refine=refine)
    # one walk for the palette, and one more for its refined colors
    palette_sizes = [len(w) for w in color_walls(ws, alternating_palette(system)).by_color.values()]
    assert walks == [palette_sizes] + [list(map(len, res.class_wids.values()))] * refine
    kept = ws._walk
    from_e = {cls: peel_oracle.peel_levels(ws, wids) for cls, wids in res.class_wids.items()}
    for base in random.Random(radius).sample(range(1, len(ball)), 25):
        expected, flips = {}, {}
        for cls, wids in res.class_wids.items():
            for w, level in peel_oracle.peel_levels(ws, wids, base).items():
                expected[w] = (-1 if ws.separates(w, 0, base) else 1) * (-1) ** level
            pattern = {expected[w] != (-1) ** level for w, level in from_e[cls].items()}
            assert len(pattern) == 1  # a rebase flips whole classes
            flips[cls] = pattern.pop()
        rebased = rebased_alternating(ws, res.class_wids, base)
        assert dict(enumerate(rebased)) == expected
        assert rebased == orient_alternating(ws, res.class_wids, flips)
    # every rebase read the resolution's walk, the one kept, with no further walk
    assert len(walks) == 1 + refine and ws._walk is kept


def random_right_angled(rng, rank):
    """A right-angled system and a proper coloring of its order-2 graph, greedy
    in generator order: walls of one color then never meet."""
    matrix = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            matrix[i][j] = matrix[j][i] = rng.choice((2, 0))
    system = CoxeterSystem(tuple(f"s{i}" for i in range(rank)), tuple(map(tuple, matrix)))
    palette = {}
    for s in range(rank):
        palette[s] = min(set(range(rank)) - {palette[t] for t in range(s) if matrix[s][t] == 2})
    return system, palette


FOREST_INPUTS = [
    *[pytest.param(HEXAGON, alternating_palette(HEXAGON), r, id=f"hexagon-{r}") for r in (4, 5, 6)],
    pytest.param(OCTAGON, alternating_palette(OCTAGON), 5, id="octagon-5"),
    *[pytest.param(*random_right_angled(random.Random(seed), 4 + seed % 3), 7 - seed % 3,
                   id=f"right-angled-{seed}") for seed in range(4)],
]


@pytest.mark.parametrize("system, palette, radius", FOREST_INPUTS)
def test_class_forest_matches_oracle(system, palette, radius, monkeypatch):
    # one walk for the palette, kept until one for its refined colors replaces
    # it; levels and innermost separators from e read off each walk as it stands
    walks = count_walks(monkeypatch)
    ball, ws = make(system, radius)
    classes = color_walls(ws, palette)
    assert classes.disjoint
    color_of = wall_coloring(ws, classes)
    refined = {}
    for wid, color in enumerate(color_of):
        refined.setdefault(color, []).append(wid)
    palette_walk = class_walk(ws, classes.by_color.values())
    assert len(walks) == 1 and ws._walk is palette_walk
    refined_walk = class_walk(ws, refined.values())
    assert len(walks) == 2 and ws._walk is refined_walk is not palette_walk
    for walk, group in ((palette_walk, classes.by_color), (refined_walk, refined)):
        for wids in group.values():
            tree = peel_oracle.build_wall_tree(ws, wids)
            assert {w: walk.level[w] for w in wids} == tree.levels
            inner = {w: p for w, p in tree.parent.items() if tree.levels[w] > 1}
            assert {w: walk.parent[w] for w in wids if walk.level[w] > 1} == inner
    assert len(walks) == 2 and ws._walk is refined_walk


def assert_walk_matches_forest(walk, forest, classes):
    """The walk's levels and tree parents against the forest oracle's on every
    class wall: a wall the forest hangs under e's region hangs under its
    class's root, its least wall, which has no parent."""
    for wids in classes:
        root = min(wids)
        assert [walk.level[w] for w in wids] == [forest.level[w] for w in wids]
        assert [walk.parent[w] for w in wids] == [
            None if w == root else root if forest.parent[w] < 0 else forest.parent[w] for w in wids]


WALK_INPUTS = [
    *[pytest.param(system, palette, top, id=name) for name, system, palette, top in ORACLE_INPUTS],
    *FOREST_INPUTS,
    *[pytest.param(*random_right_angled(random.Random(seed), 3 + seed % 5), 6 - seed % 3,
                   id=f"right-angled-{seed}") for seed in range(4, 12)],
]


@pytest.mark.parametrize("refine", [False, True], ids=["palette", "refined"])
@pytest.mark.parametrize("system, palette, radius", WALK_INPUTS)
def test_walk_matches_region_pass_and_contraction(system, palette, radius, refine):
    # the walk against the region pass and the contraction it replaced
    # (tests/forest_oracle.py): a palette's classes against one pass over the
    # ball, its refined colors and seeded parts of its classes against the
    # contraction of that pass, whose edge check every class passes
    ball, ws = make(system, radius)
    classes = color_walls(ws, palette)
    assert classes.disjoint
    lists = list(classes.by_color.values())
    forest = forest_oracle._region_pass(ws, lists)
    assert forest.failed == [-1] * len(lists)
    if refine:
        rng = random.Random(radius)
        refined = {}
        for wid, color in enumerate(wall_coloring(ws, classes)):
            refined.setdefault(color, []).append(wid)
        parts = [sorted(rng.sample(wids, len(wids) // 2 + 1)) for wids in lists]
        for group in (list(refined.values()), parts):
            assert_walk_matches_forest(class_walk(ws, group), forest_oracle._contract(forest, group), group)
    else:
        assert_walk_matches_forest(class_walk(ws, lists), forest, lists)


@pytest.mark.parametrize("system, palette, radius", FOREST_INPUTS)
def test_wall_coloring_matches_oracle_tree_depths(system, palette, radius):
    # each wall's color is its class and the norm color of its depth in the
    # oracle's class tree, which wall_coloring no longer builds
    ball, ws = make(system, radius)
    classes = color_walls(ws, palette)
    depth = {}
    for color, wids in classes.by_color.items():
        tree = peel_oracle.build_wall_tree(ws, wids)
        depth.update((w, (color, tree.depth[w])) for w in wids)
    tern = square_free_prefix(max(d for _color, d in depth.values()) + 1)
    color_of = wall_coloring(ws, classes)
    assert dict(enumerate(color_of)) == {w: (color, (tern[d], d % 3)) for w, (color, d) in depth.items()}


def test_wall_set_keeps_one_forest(monkeypatch):
    # a wall set keeps one walk, its last: the single-class peels of the
    # refined colors read the refined walk as it stands, a palette class
    # asked for alone makes a walk of its own in its place, and the refined
    # colors asked for again make theirs anew
    walks = count_walks(monkeypatch)
    ball, ws = make(HEXAGON, 5)
    classes = color_walls(ws, alternating_palette(HEXAGON))
    color_of = wall_coloring(ws, classes)
    assert len(walks) == 1
    refined = {}
    for wid, color in enumerate(color_of):
        refined.setdefault(color, []).append(wid)

    def held():
        return [x for v in vars(ws).values() for x in (v if isinstance(v, list) else [v])
                if isinstance(x, ClassWalk)]

    kept = class_walk(ws, refined.values())
    for wids in refined.values():
        peel_levels(ws, wids)
        assert held() == [kept] and held()[0] is kept
    assert len(walks) == 2
    for wids in classes.by_color.values():
        peel_levels(ws, wids)
        assert len(held()) == 1 and held()[0].sizes == [len(wids)]
    assert len(walks) == 2 + len(classes.by_color)
    # refined -> palette -> refined: one walk each, equal to the first refined one
    first = class_walk(ws, refined.values())
    assert class_walk(ws, classes.by_color.values()) is ws._walk is not first
    again = class_walk(ws, refined.values())
    assert again == first == kept and again is not first
    assert held() == [again] and len(walks) == 5 + len(classes.by_color)


def hexagon_class_lists(ws, refine):
    """The alternating palette's classes of ws, or its refined colors, each
    an increasing list of wall ids."""
    classes = color_walls(ws, alternating_palette(HEXAGON))
    if not refine:
        return list(classes.by_color.values())
    refined = {}
    for wid, color in enumerate(wall_coloring(ws, classes)):
        refined.setdefault(color, []).append(wid)
    return list(refined.values())


@pytest.mark.parametrize("refine", [False, True], ids=["palette", "refined"])
def test_class_forest_reads_a_class_in_any_order(refine):
    # class_walk reads each class as a set of walls (its home, its size and
    # the class number of each wall), so shuffled and reversed lists give the
    # walk the increasing ones give, on a fresh wall set, and on the wall set
    # that keeps that walk they return it as it stands
    rng = random.Random(5)
    _, ws = make(HEXAGON, 5)
    lists = hexagon_class_lists(ws, refine)
    assert all(wids == sorted(wids) for wids in lists) and len(lists) > 1
    walk = class_walk(ws, lists)
    for order in ([wids[::-1] for wids in lists], [rng.sample(wids, len(wids)) for wids in lists]):
        _, fresh = make(HEXAGON, 5)
        assert hexagon_class_lists(fresh, refine) == lists
        assert class_walk(fresh, order) == walk
        assert class_walk(ws, order) is walk
    # the wall set still holds that one walk
    assert ws._walk is walk


def test_peeling_refined_classes_keeps_the_resolution_contraction(monkeypatch):
    # a refined resolution's rebases read its one refined walk; each refined
    # class peeled on its own is one of that walk's classes, so neither the
    # peels nor a later rebase walk again
    walks = count_walks(monkeypatch)
    ball, ws = make(HEXAGON, 5)
    res = alternating_resolution(ws, alternating_palette(HEXAGON), refine=True)
    rebased = rebased_alternating(ws, res.class_wids, 7)
    kept = ws._walk
    assert kept.sizes == list(map(len, res.class_wids.values()))
    assert len(walks) == 2 and len(res.class_wids) > 2  # the palette's, to color, and the refined colors'
    for wids in res.class_wids.values():
        assert peel_levels(ws, wids) == peel_oracle.peel_levels(ws, wids)
    assert rebased_alternating(ws, res.class_wids, 7) == rebased
    assert len(walks) == 2 and ws._walk is kept


@pytest.mark.parametrize(
    "system, name, palette_name, radius",
    [
        (HEXAGON, "hexagon", "alternating", 5),
        (PENTAGON, "pentagon", "distinct", 5),
        (OCTAGON, "polygon:8", "alternating", 4),
    ],
    ids=["hexagon-5", "pentagon-5-distinct", "octagon-4"],
)
def test_walls_cli_levels_and_parents_match_oracle_trees(system, name, palette_name, radius):
    # every wall's level and tree parent in the report against the oracle's trees
    palette = alternating_palette(system) if palette_name == "alternating" else distinct(system)
    argv = ["walls", "--system", name, "--radius", str(radius), "--palette", palette_name]
    out = io.StringIO()
    assert main(argv, out=out) == 0
    records = json.loads(out.getvalue())["results"]["walls"]
    ball, ws = make(system, radius)
    names = [system.spell(ws.canonical_word(w)) for w in range(len(ws))]
    expected = [None] * len(ws)
    for wids in color_walls(ws, palette).by_color.values():
        tree = peel_oracle.build_wall_tree(ws, wids)
        for w in wids:
            p = tree.parent.get(w)
            expected[w] = (tree.levels[w], None if p is None else names[p])
    assert [(r["level"], r["tree_parent"]) for r in records] == expected
    assert any(r["tree_parent"] for r in records)


@pytest.mark.parametrize("end", ["far", "near"])
def test_corrupt_face_trips_the_edge_check(end):
    # relabel the geodesic edge into one end of a crossed edge of each sampled
    # wall: the far end's region then misses the wall (given the other class's
    # label), or the near end's region is a class wall other than the region on
    # the near side of the wall's least edge, which lies outside the relabelled
    # subtree.  The walk trusts the tables; the forest oracle's edge check does not
    ball, ws = make(HEXAGON, 4)
    classes = color_walls(ws, alternating_palette(HEXAGON))
    wids, other = classes.by_color["a"], classes.by_color["b"][0]
    assert peel_levels(ws, wids) == peel_oracle.peel_levels(ws, wids) == forest_oracle.peel_levels(ws, wids)
    parent = forest_oracle._region_pass(ws, [wids]).parent  # the region on each wall's near side
    n = HEXAGON.rank
    spread = [w for w in wids if ws.walls[w].edges[0][0] < ws.walls[w].edges[-1][0]]
    for w in random.Random(4).sample(spread, 20):
        if end == "far":
            g, s = next((g, s) for g, s in ws.walls[w].edges if ball.words[ball.nbr[g * n + s]][-1] == s)
            x, label = ball.nbr[g * n + s], other
        else:
            x = ws.walls[w].edges[-1][0]
            t = ball.words[x][-1]
            label = min(set(wids) - {w, ws.faces[x * n + t], parent[w]})
        t = ball.words[x][-1]
        broken = enumerate_walls(ball)
        broken.faces[x * n + t] = broken.faces[ball.nbr[x * n + t] * n + t] = label
        with pytest.raises(StructureError, match="separators of wall [0-9]+ are not nested"):
            forest_oracle.peel_levels(broken, wids)


def test_single_colour_class_matches_oracle():
    # every wall in one class: walls meet at corners, so the class is not disjoint
    ball, ws = make(HEXAGON, 4)
    classes = color_walls(ws, dict.fromkeys(range(6), "x"))
    (wids,) = classes.by_color.values()
    assert len(wids) == 336 and not classes.disjoint
    # the round-based oracle peels from some bases and stalls from others
    oracle = [outcome(peel_oracle.peel_levels, ws, wids, base) for base in (0, 1, 7, 40)]
    assert [max(r.values()) if isinstance(r, dict) else r[0] for r in oracle] == [4, 5, "StructureError", 7]
    # the Coxeter matrix cannot certify the class: s0 and s1 commute, so
    # their walls cross at e, and no walk is made
    refusal = "^class of 336 walls is not certified disjoint: generators 's0' and 's1' have order 2$"
    with pytest.raises(StructureError, match=refusal):
        peel_levels(ws, wids)
    with pytest.raises(StructureError, match=refusal):
        build_wall_tree(ws, wids)
    assert ws._walk is None
    # the forest oracle's edge check rejects it, at the first wall whose edges disagree
    with pytest.raises(StructureError, match="separators of wall 0 are not nested"):
        forest_oracle.peel_levels(ws, wids)
    # the oracle's own nesting check rejects its tree, naming another wall
    assert tree_outcome(peel_oracle.build_wall_tree, ws, wids) == (
        "StructureError", "separators of wall 24 are not nested; class is not disjoint")


def count_walks(monkeypatch):
    """Class sizes of every walk made, from now on."""
    walks = []

    class Counted(ClassWalk):
        def __init__(self, *fields):
            super().__init__(*fields)
            walks.append(self.sizes)

    monkeypatch.setattr(coxtile.walls, "ClassWalk", Counted)
    return walks


def test_walls_cli_makes_one_forest_pass_per_palette(monkeypatch):
    walks = count_walks(monkeypatch)
    argv = ["walls", "--system", "hexagon", "--radius", "5", "--palette", "alternating"]
    assert main(argv, out=io.StringIO()) == 0
    ball, ws = make(HEXAGON, 5)
    classes = color_walls(ws, alternating_palette(HEXAGON))
    assert walks == [list(map(len, classes.by_color.values()))]


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
    # the oracle stalls on the cycle; the region tree cannot hold it, so the
    # forest oracle's edge check fails
    ball, ws = make(HEXAGON, 4)
    wids = color_walls(ws, alternating_palette(HEXAGON)).by_color["a"]
    plant_cycle(ws, pick_walls(ws, wids, length))
    with pytest.raises(StructureError, match="peeling stalled"):
        peel_oracle.peel_levels(ws, wids)
    with pytest.raises(StructureError, match="separators of wall [0-9]+ are not nested"):
        forest_oracle.peel_levels(ws, wids)


def test_walls_report_names_the_first_failing_class_in_by_color_order(monkeypatch):
    # both classes fail the forest oracle's nesting check; its trees raise for
    # the first class in by_color order, naming the wall a pass over that class
    # alone names, and so does wall_coloring when its walk is checked that way
    def corrupted():
        ball, ws = make(HEXAGON, 4)
        classes = color_walls(ws, alternating_palette(HEXAGON))
        nears = set()  # one plant per near chamber, so that the second keeps the first
        for wids in classes.by_color.values():
            cycle = pick_walls(ws, [w for w in wids if ws.walls[w].edges[0][0] not in nears], 2)
            nears.update(ws.walls[w].edges[0][0] for w in cycle)
            plant_cycle(ws, cycle)
        return ws, classes

    ws, classes = corrupted()
    messages = []
    for wids in classes.by_color.values():
        with pytest.raises(StructureError, match="separators of wall [0-9]+ are not nested") as err:
            forest_oracle.peel_levels(corrupted()[0], wids)
        messages.append(str(err.value))
    assert len(set(messages)) == 2
    with pytest.raises(StructureError) as err:
        forest_oracle.class_trees(ws, classes.by_color.values())
    assert str(err.value) == messages[0]
    real = coxtile.walls.class_walk

    def checked_walk(wallset, classes):
        forest_oracle.class_trees(wallset, classes)  # the edge check, class by class in the given order
        return real(wallset, classes)

    monkeypatch.setattr(coxtile.walls, "class_walk", checked_walk)
    with pytest.raises(StructureError) as err:
        wall_coloring(*corrupted())
    assert str(err.value) == messages[0]


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
    # the same cycle planted where the forest oracle's region pass reads it
    monkeypatch.undo()
    plant_cycle(ws, [a, b])
    with pytest.raises(StructureError, match="separators of wall [0-9]+ are not nested"):
        forest_oracle.peel_levels(ws, wids)


TRIANGLE = CoxeterSystem(("a", "b", "c"), ((1, 3, 3), (3, 1, 0), (3, 0, 1)))
ONE_WALL_SYSTEMS = {
    "hexagon": HEXAGON,
    "33inf": TRIANGLE,
    "237": CoxeterSystem(("a", "b", "c"), ((1, 2, 3), (2, 1, 7), (3, 7, 1))),
    "444": CoxeterSystem(("a", "b", "c"), ((1, 4, 4), (4, 1, 4), (4, 4, 1))),
    "5678": CoxeterSystem(("a", "b", "c", "d"), ((1, 5, 0, 8), (5, 1, 6, 0), (0, 6, 1, 7), (8, 0, 7, 1))),
}

# every entry point that reads levels off a walk, on the one class `wids`
WALK_ENTRY_POINTS = {
    "peel_levels": lambda ws, wids: peel_levels(ws, wids),
    "build_wall_tree": lambda ws, wids: build_wall_tree(ws, wids).levels,
    # the class trees the walls report reads off a walk of a list of classes
    "class_trees": lambda ws, wids: {w: class_walk(ws, [wids]).level[w] for w in wids},
    "orient_alternating": lambda ws, wids: {w: -orient_alternating(ws, {"x": wids})[w] for w in wids},
    "rebased_alternating": lambda ws, wids: {w: -rebased_alternating(ws, {"x": wids}, 0)[w] for w in wids},
}


def assert_refused(entry, ws, wids, message):
    # one error line, and no walk kept in place of the one before
    kept = ws._walk
    with pytest.raises(StructureError) as err:
        WALK_ENTRY_POINTS[entry](ws, wids)
    assert str(err.value) == message and "\n" not in message
    assert ws._walk is kept


@pytest.mark.parametrize("entry", sorted(WALK_ENTRY_POINTS))
def test_one_colour_hexagon_class_is_refused(entry):
    # s0 and s1 commute, so their walls cross at e
    _, ws = make(HEXAGON, 3)
    (wids,) = color_walls(ws, dict.fromkeys(range(6), "x")).by_color.values()
    assert_refused(entry, ws, wids, f"class of {len(wids)} walls is not certified disjoint: "
                                    "generators 's0' and 's1' have order 2")


@pytest.mark.parametrize("entry", sorted(WALK_ENTRY_POINTS))
def test_two_wall_class_on_the_33inf_triangle_is_refused(entry):
    # m_ab = 3: the matrix certifies no class of two walls, even after a walk
    # of one-wall classes is kept, and even for two walls of one generator
    _, ws = make(TRIANGLE, 4)
    b_walls = [w for w, f in enumerate(ws.least_faces()) if f % 3 == 1]
    class_walk(ws, [[0], [1]])
    for wids in ([0, len(ws) - 1], b_walls[:2]):
        assert_refused(entry, ws, wids, "class of 2 walls is not certified disjoint: generators 'a' and 'b' have order 3")


@pytest.mark.parametrize("entry", sorted(WALK_ENTRY_POINTS))
@pytest.mark.parametrize("name", sorted(ONE_WALL_SYSTEMS))
def test_one_wall_class_is_accepted_on_any_system(name, entry):
    # one wall never crosses itself: level 1, from e and from e as the rebase chamber
    _, ws = make(ONE_WALL_SYSTEMS[name], 3)
    for w in (0, len(ws) // 2, len(ws) - 1):
        assert WALK_ENTRY_POINTS[entry](ws, [w]) == {w: 1}
