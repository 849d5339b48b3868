import io
import random
from itertools import combinations

import corner_oracle
import peel_oracle
import pytest
from wall_faces import wall_of_face

from coxtile import cli
from coxtile.colorings import NORM_PALETTE
from coxtile.coxeter import CoxeterSystem, enumerate_ball
from coxtile.errors import InconclusiveError, OutOfBallError, ValidationError
from coxtile.pipeline import alternating_resolution, build_walls
from coxtile.tiles import build_alphabet, rebased_alternating
from coxtile.walls import (
    alternating_palette,
    build_wall_tree,
    color_walls,
    enumerate_walls,
    peel_levels,
    separates_by_components,
    wall_coloring,
    wall_components,
)


def make(system, radius):
    ball = enumerate_ball(system, radius)
    return ball, enumerate_walls(ball)


def test_infinite_dihedral_walls_radius3():
    ball, ws = make(CoxeterSystem.infinite_dihedral(), 3)
    words = sorted(ws.canonical_word(w.wid) for w in ws.walls)
    assert sorted(words, key=lambda w: (len(w), w)) == [
        (0,),
        (1,),
        (0, 1, 0),
        (1, 0, 1),
        (0, 1, 0, 1, 0),
        (1, 0, 1, 0, 1),
    ]
    assert len(ws) == 6


def test_pentagon_radius1_walls():
    ball, ws = make(CoxeterSystem.right_angled_polygon(5), 1)
    assert len(ws) == 5
    assert sorted(ws.canonical_word(w.wid) for w in ws.walls) == [(i,) for i in range(5)]


def test_wall_count_grows_with_radius():
    pent = CoxeterSystem.right_angled_polygon(5)
    counts = [len(make(pent, r)[1]) for r in range(1, 5)]
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]


def test_separates_defining_edge_and_reflexive():
    ball, ws = make(CoxeterSystem.right_angled_polygon(5), 3)
    s_wall = wall_of_face(ws, 0, 0)
    s_id = ball.id_of((0,))
    assert ws.separates(s_wall, 0, s_id)
    for w in ws.walls[:10]:
        assert not ws.separates(w.wid, s_id, s_id)


def test_separating_count_equals_norm():
    ball, ws = make(CoxeterSystem.right_angled_polygon(5), 4)
    for cid in range(len(ball)):
        assert len(ws.sep[cid]) == ball.norms[cid]


def test_separates_matches_component_oracle():
    ball, ws = make(CoxeterSystem.right_angled_polygon(5), 4)
    inner = [cid for cid in range(len(ball)) if ball.norms[cid] <= 2]
    for w in ws.walls:
        if not w.determinate:
            continue
        for a in inner[:8]:
            for b in inner[:8]:
                assert ws.separates(w.wid, a, b) == separates_by_components(ws, w.wid, a, b)


def test_cross_edge_parity_consistency():
    ball, ws = make(CoxeterSystem.right_angled_polygon(5), 4)
    for (i, s), j in ball.edges.items():
        assert ws.sep[i] ^ ws.sep[j] == {wall_of_face(ws, i, s)}


def test_color_walls_hexagon_alternating_disjoint():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = make(hexsys, 4)
    classes = color_walls(ws, alternating_palette(hexsys))
    assert classes.disjoint
    assert set(classes.by_color) == {"a", "b"}


def test_color_walls_dihedral_single_color_violation():
    # the rule refuses the pair of order 3, and the ball scan finds the
    # crossing at e's corner
    ball, ws = make(CoxeterSystem.dihedral(3), 3)
    palette = {0: "c", 1: "c"}
    classes = color_walls(ws, palette)
    assert not classes.disjoint
    assert classes.violations == [(0, 1, 3)]
    assert any(cid == 0 for cid, _, _ in corner_oracle.violations(ws, palette))


@pytest.mark.parametrize("orders", [(4, 4, 4), (4, 4, 0)], ids=["(4,4,4)", "(4,4,inf)"])
def test_color_walls_flags_walls_crossing_in_a_residue(orders):
    # walls 0 (a) and 5 (b.a.b) share generator a and cross at the centre of
    # the order-4 residue <a, b> at e, yet no chamber has both as faces
    a, b, c = orders
    system = CoxeterSystem(("a", "b", "c"), ((1, a, b), (a, 1, c), (b, c, 1)))
    ball, ws = make(system, 6)
    assert ws.canonical_word(5) == (1, 0, 1)
    violations = corner_oracle.violations(ws, {s: s for s in range(3)})
    assert (0, 0, 5) in violations
    entries = [v for v in violations if v[1:] == (0, 5)]
    assert entries == [(0, 0, 5)]  # listed once, at the residue's bottom


def test_color_walls_residue_scan_keeps_corner_verdicts():
    # at order 3 every two walls of a residue share a chamber, so the corner
    # scan alone decides: the dihedral group of order 6 with one color
    ball, ws = make(CoxeterSystem.dihedral(3), 3)
    violations = corner_oracle.violations(ws, {0: "c", 1: "c"})
    faces = {cid: set(ws.faces[2 * cid : 2 * cid + 2]) for cid in range(len(ball))}
    assert len(violations) == 6
    assert all({w1, w2} == faces[cid] for cid, w1, w2 in violations)


def triangle(a, b, c):
    return CoxeterSystem(("a", "b", "c"), ((1, a, b), (a, 1, c), (b, c, 1)))


# (system, radius): odd components {a, b, c}, {a, b, c}, {a}/{b, c}, three
# singletons, and {a, b}/{c, d}
CORNER_SYSTEMS = {
    "(3,3,inf)": (triangle(3, 3, 0), 9),
    "(2,3,7)": (triangle(2, 3, 7), 12),
    "B3": (triangle(4, 2, 3), 9),
    "(4,4,4)": (triangle(4, 4, 4), 6),
    "rank4-5678": (
        CoxeterSystem(("a", "b", "c", "d"), ((1, 5, 0, 8), (5, 1, 6, 0), (0, 6, 1, 7), (8, 0, 7, 1))),
        6,
    ),
}


def refused_exactly_when_the_scan_meets(ws, palette):
    """The matrix rule refuses the palette exactly when the ball scan of
    tests/corner_oracle.py finds two walls of one color meeting."""
    classes = color_walls(ws, palette)
    assert classes.disjoint == (not corner_oracle.violations(ws, palette)), palette
    return classes.disjoint


@pytest.mark.parametrize("name", sorted(CORNER_SYSTEMS))
def test_corner_pruning_matches_the_unpruned_scan(name):
    # the matrix rule prunes every scan: it refuses a palette exactly when
    # the unpruned scan finds walls of one color meeting in the ball
    system, radius = CORNER_SYSTEMS[name]
    ball, ws = make(system, radius)
    n, rng = system.rank, random.Random(name)
    palettes = [dict.fromkeys(range(n), "x"), {s: s for s in range(n)}]
    palettes += [{s: rng.choice("xyz"[:k]) for s in range(n)} for k in (2, 3) for _ in range(6)]
    for palette in palettes:
        refused_exactly_when_the_scan_meets(ws, palette)


def random_system(rng):
    """A system of rank 3 to 5: right-angled in 60% of draws, else each
    order drawn from 2, 3 to 7 and infinity (0)."""
    n = rng.randint(3, 5)
    orders = [2, 0] if rng.random() < 0.6 else [2, 3, 4, 5, 6, 7, 0]
    matrix = [[1] * n for _ in range(n)]
    for s, t in combinations(range(n), 2):
        matrix[s][t] = matrix[t][s] = rng.choice(orders)
    return CoxeterSystem(tuple(f"s{s}" for s in range(n)), tuple(map(tuple, matrix)))


def test_matrix_rule_matches_the_scan_on_random_systems():
    # from radius 2 every refused pair shows in the ball: its residue at e
    # holds two walls of one color meeting at a corner or in the residue
    rng = random.Random(25)
    seen = set()
    for _ in range(100):
        system = random_system(rng)
        n = system.rank
        palettes = [{s: rng.choice("xyz"[:k]) for s in range(n)} for k in (2, 3)]
        for radius in range(2, 6):
            ball, ws = make(system, radius)
            for palette in palettes:
                seen.add(refused_exactly_when_the_scan_meets(ws, palette))
    assert seen == {True, False}  # both verdicts drawn


def test_corner_pruning_keeps_every_pair_when_all_generators_are_conjugate():
    # (3,3,inf): a-b and a-c have order 3, so a, b and c are one odd
    # component, and the palette {a, b, a} leaves no pair to skip
    system, radius = CORNER_SYSTEMS["(3,3,inf)"]
    ball, ws = make(system, radius)
    palette = {0: "a", 1: "b", 2: "a"}
    violations = corner_oracle.violations(ws, palette)
    assert violations and not color_walls(ws, palette).disjoint
    # both pairs of finite order hold corners where two walls of one color meet
    pairs = {frozenset(s for s in range(3) if ws.faces[cid * 3 + s] in (w1, w2)) for cid, w1, w2 in violations}
    assert pairs == {frozenset({0, 1}), frozenset({0, 2})}


def test_color_walls_pentagon_identity_palette():
    pent = CoxeterSystem.right_angled_polygon(5)
    ball, ws = make(pent, 3)
    classes = color_walls(ws, {s: s for s in range(5)})
    assert classes.disjoint
    assert len(classes.by_color) == 5


def test_color_walls_missing_generator():
    ball, ws = make(CoxeterSystem.right_angled_polygon(5), 2)
    with pytest.raises(ValidationError):
        color_walls(ws, {0: "a"})


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_color_walls_reads_palette_validity_off_the_matrix(radius):
    # (2,3,7): a-c and b-c have finite orders 3 and 7, so every palette is
    # refused; a 4-cycle of commuting pairs a-b, b-d, d-c, c-a refuses the
    # alternating palette, which gives a, c and b, d one color each; the
    # right-angled hexagon takes it.  The ball's size changes none of this.
    square = CoxeterSystem(
        ("a", "b", "c", "d"), ((1, 2, 2, 0), (2, 1, 0, 2), (2, 0, 1, 2), (0, 2, 2, 1))
    )
    hexagon = CoxeterSystem.right_angled_polygon(6)
    cases = [
        (triangle(2, 3, 7), {s: s for s in range(3)}, [(0, 2, 3), (1, 2, 7)]),
        (square, alternating_palette(square), [(0, 2, 2), (1, 3, 2)]),
        (hexagon, alternating_palette(hexagon), []),
    ]
    for system, palette, violations in cases:
        ball, ws = make(system, radius)
        classes = color_walls(ws, palette)
        assert classes.violations == violations
        assert classes.disjoint == (not violations)
        if violations:
            with pytest.raises(ValidationError, match="palette invalid: walls of one color cross"):
                alternating_resolution(ws, palette)


def test_peel_levels_infinite_dihedral_line():
    ball, ws = make(CoxeterSystem.infinite_dihedral(), 6)
    classes = color_walls(ws, {0: "even", 1: "odd"})
    # conjugates of s: walls s, tst, ststs, ... one per level moving outward
    for color in ("even", "odd"):
        levels = peel_levels(ws, classes.by_color[color])
        by_level = {}
        for w, lv in levels.items():
            by_level.setdefault(lv, []).append(w)
        assert sorted(by_level) == list(range(1, len(by_level) + 1))
        # the line has two rays: levels 1 and 2 on each side alternate by word length
        words = sorted(
            (len(ws.canonical_word(w)), lv) for w, lv in levels.items()
        )
        lengths = [lv for _, lv in words]
        assert lengths == sorted(lengths)


def test_peel_level_one_bounds_base():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = make(hexsys, 4)
    classes = color_walls(ws, alternating_palette(hexsys))
    levels = peel_levels(ws, classes.by_color["a"])
    for s in (0, 2, 4):
        assert levels[wall_of_face(ws, 0, s)] == 1


def test_peel_levels_match_separating_counts():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = make(hexsys, 5)
    classes = color_walls(ws, alternating_palette(hexsys))
    for color, wids in classes.by_color.items():
        levels = peel_levels(ws, wids)
        cls = frozenset(wids)
        for w in wids:
            assert levels[w] == len(ws.separating_walls(w, 0) & cls) + 1


def test_peel_levels_stable_under_radius_growth():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball4, ws4 = make(hexsys, 4)
    ball6, ws6 = make(hexsys, 6)
    cls4 = color_walls(ws4, alternating_palette(hexsys))
    cls6 = color_walls(ws6, alternating_palette(hexsys))
    lev4 = peel_levels(ws4, cls4.by_color["a"])
    lev6 = peel_levels(ws6, cls6.by_color["a"])
    map4 = {ws4.canonical_word(w): lv for w, lv in lev4.items()}  # every wall, the boundary's too
    map6 = {ws6.canonical_word(w): lv for w, lv in lev6.items()}
    for word, lv in map4.items():
        assert map6[word] == lv


def test_wall_tree_infinite_dihedral_path():
    ball, ws = make(CoxeterSystem.infinite_dihedral(), 6)
    classes = color_walls(ws, {0: "even", 1: "odd"})
    tree = build_wall_tree(ws, classes.by_color["even"])
    degrees = {}
    for a, b in tree.edges:
        degrees[a] = degrees.get(a, 0) + 1
        degrees[b] = degrees.get(b, 0) + 1
    assert len(tree.edges) == len(tree.vertices) - 1
    assert max(degrees.values()) <= 2  # a path


def test_wall_tree_single_wall():
    ball, ws = make(CoxeterSystem.right_angled_polygon(5), 1)
    tree = build_wall_tree(ws, [ws.walls[0].wid])
    assert tree.edges == [] and tree.root == ws.walls[0].wid


def test_wall_tree_acyclic_connected_and_rooted():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = make(hexsys, 5)
    classes = color_walls(ws, alternating_palette(hexsys))
    for color, wids in classes.by_color.items():
        tree = build_wall_tree(ws, wids)
        assert len(tree.edges) == len(tree.vertices) - 1
        assert set(tree.depth) == set(tree.vertices)
        assert ws.canonical_word(tree.root) == ((0,) if color == "a" else (1,))
        levels = peel_levels(ws, wids)
        for child, par in tree.parent.items():
            if par == tree.root and levels[child] == 1:
                continue  # level-1 walls hang under the root wall
            assert levels[child] - levels[par] == 1


def test_non_disjoint_class_is_caught_by_certificate():
    # peeling alone cannot see that dihedral walls meet at the center;
    # the corner certificate is the guard that must be consulted first
    ball, ws = make(CoxeterSystem.dihedral(3), 3)
    classes = color_walls(ws, {0: "c", 1: "c"})
    assert not classes.disjoint


def test_wall_coloring_palette_and_root_colors():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = make(hexsys, 4)
    classes = color_walls(ws, alternating_palette(hexsys))
    color_of = wall_coloring(ws, classes)
    palette = {(color, c) for color in classes.by_color for c in NORM_PALETTE}
    assert len(palette) == 18  # nine per class
    assert set(color_of) <= palette
    for color, wids in classes.by_color.items():
        assert color_of[build_wall_tree(ws, wids).root] == (color, (0, 0))
    assert {w for w, c in enumerate(color_of) if c is not None} == {w.wid for w in ws.walls}


def test_wall_coloring_single_class_reduces_to_tree_coloring():
    ball, ws = make(CoxeterSystem.infinite_dihedral(), 4)
    classes = color_walls(ws, {0: "c", 1: "c"})
    # single color is not disjoint for the infinite dihedral? walls never meet:
    # m(0,1) = 0, so no corner joins them; one class covering all walls is fine
    assert classes.disjoint
    color_of = wall_coloring(ws, classes)
    tree = build_wall_tree(ws, classes.by_color["c"])
    from coxtile.sequences import square_free_prefix

    tern = square_free_prefix(max(tree.depth.values()) + 1)
    for w, d in tree.depth.items():
        assert color_of[w] == ("c", (tern[d], d % 3))


def test_rebase_flips_oriented_parity_per_class():
    # the invariant quantity is lev_c(w) + [w separates e from c]: its parity
    # shift under rebasing is |sep(c) & class| mod 2, the same for every wall;
    # the library peels from e only, so the oracle re-peels from c
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = make(hexsys, 5)
    classes = color_walls(ws, alternating_palette(hexsys))
    small = [cid for cid in range(len(ball)) if ball.norms[cid] <= 1]
    for color, wids in classes.by_color.items():
        cls = frozenset(wids)
        base_levels = peel_levels(ws, wids)
        for c in small:
            relev = peel_oracle.peel_levels(ws, wids, base=c)
            flips = {
                (relev[w] + (w in ws.sep[c]) - base_levels[w]) % 2 for w in wids
            }
            assert flips == {len(ws.sep[c] & cls) % 2}


def test_separation_set_equals_cocycle_entries():
    # the walls separating e from g are exactly the reflections crossed by
    # g's normal-form path
    from coxtile.coxeter import reflection_cocycle

    pent = CoxeterSystem.right_angled_polygon(5)
    ball, ws = make(pent, 4)
    for cid in range(len(ball)):
        word = ball.words[cid]
        entries, reduced = reflection_cocycle(pent, word)
        assert reduced
        sep_words = {ws.canonical_word(w) for w in ws.sep[cid]}
        assert sep_words == set(entries)


def test_sep_parent_chain_matches_word_prefixes():
    # the crossing sets read up the ShortLex tree are those read along each word
    ball, ws = make(CoxeterSystem(("a", "b", "c"), ((1, 2, 3), (2, 1, 7), (3, 7, 1))), 9)
    assert "words" not in vars(ball)
    n = ball.system.rank
    for cid, word in enumerate(ball.words):
        prefixes = frozenset(ws.faces[ball.index[word[:i]] * n + s] for i, s in enumerate(word))
        assert ws.sep[cid] == prefixes and len(prefixes) == len(word)


def test_spheres_walls_and_separation_build_no_words():
    ball = enumerate_ball(CoxeterSystem(("a", "b", "c"), ((1, 3, 3), (3, 1, 0), (3, 0, 1))), 8)
    assert ball.sphere_sizes == [1, 3, 6, 10, 16, 26, 42, 68, 110] and len(ball) == 282
    ws = enumerate_walls(ball)
    assert len(ws.sep[len(ball) - 1]) == 8
    assert ws.separates(0, 0, 1)
    color_walls(ws, {0: "a", 1: "b", 2: "c"})
    assert "words" not in vars(ball) and "index" not in vars(ball)


def test_walls_cli_never_spells_wall_objects(monkeypatch):
    # the report reads each wall off the edge tables, never through WallSet.walls
    built = []
    monkeypatch.setattr(cli, "build_walls", lambda *a: built.append(build_walls(*a)) or built[-1])
    argv = ["walls", "--system", "hexagon", "--radius", "5", "--palette", "alternating"]
    assert cli.main(argv, out=io.StringIO()) == 0
    ((_ball, ws),) = built
    assert len(ws) == 1254 and "walls" not in vars(ws)


def test_refined_resolutions_never_spell_wall_objects():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = make(hexsys, 5)
    res = alternating_resolution(ws, alternating_palette(hexsys), refine=True)
    for chamber in (1, 100, len(ball) - 1):
        orientation = rebased_alternating(ws, res.class_wids, chamber)
        build_alphabet(ws, res.wall_colors, orientation)
    assert "walls" not in vars(ws)


def test_wall_of_face_error_names_norm_and_radius():
    ball, ws = make(CoxeterSystem.right_angled_polygon(5), 3)
    outer = next(cid for cid in range(len(ball)) if ball.norms[cid] == 3)
    s = next(s for s in range(5) if ball.nbr[outer * 5 + s] < 0)
    with pytest.raises(InconclusiveError) as err:
        wall_of_face(ws, outer, s)
    message = str(err.value)
    assert f"chamber {outer} has norm 3" in message and "radius-3 ball" in message
    assert "enlarge the radius to at least 4" in message
    # an id outside the ball is bad input, as at every other entry point
    with pytest.raises(OutOfBallError, match=r"radius-3 ball has chambers 0\.\.60 and generators 0\.\.4"):
        wall_of_face(ws, len(ball), 0)


def test_component_error_names_count_and_radius():
    triangle = CoxeterSystem(("a", "b", "c"), ((1, 3, 3), (3, 1, 0), (3, 0, 1)))
    _, ws = make(triangle, 2)
    shattered = next(c for c in (wall_components(ws, w.wid) for w in ws.walls) if c.count > 2)
    b = next(x for x, label in enumerate(shattered.labels) if label != shattered.labels[0])
    with pytest.raises(InconclusiveError) as err:
        shattered.separates(0, b)
    message = str(err.value)
    assert f"wall {shattered.wid} split the radius-2 ball into {shattered.count} components" in message
    assert "raise the radius above 2" in message


# every entry point that takes a chamber id, called with that id set to `cid`
CHAMBER_ENTRY_POINTS = {
    "separates-a": lambda ws, wids, cid: ws.separates(wids[0], cid, 0),
    "separates-b": lambda ws, wids, cid: ws.separates(wids[0], 0, cid),
    "near_chamber": lambda ws, wids, cid: ws.near_chamber(wids[0], cid),
    "separating_walls": lambda ws, wids, cid: ws.separating_walls(wids[0], cid),
    "rebased_alternating": lambda ws, wids, cid: rebased_alternating(ws, {"a": wids}, cid),
    "Ball.word": lambda ws, wids, cid: ws.ball.word(cid),
    "Ball.parent_faces": lambda ws, wids, cid: list(ws.ball.parent_faces(cid)),
}


@pytest.mark.parametrize("where", ["minus-one", "ball-size"])
@pytest.mark.parametrize("entry", sorted(CHAMBER_ENTRY_POINTS))
def test_chamber_outside_the_ball_is_rejected(entry, where):
    # -1 would otherwise read the last chamber, and |ball| raise a bare IndexError
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = make(hexsys, 3)
    wids = color_walls(ws, alternating_palette(hexsys)).by_color["a"]
    cid = -1 if where == "minus-one" else len(ball)
    message = rf"no chamber {cid}: the radius-3 ball has chambers 0\.\.{len(ball) - 1}$"
    with pytest.raises(OutOfBallError, match=message):
        CHAMBER_ENTRY_POINTS[entry](ws, wids, cid)


# every entry point that takes a wall id, called with that id set to `wid`
WALL_ENTRY_POINTS = {
    "separates": lambda ws, wid: ws.separates(wid, 0, 1),
    "near_chamber": lambda ws, wid: ws.near_chamber(wid),
    "separating_walls": lambda ws, wid: ws.separating_walls(wid),
    "canonical_word": lambda ws, wid: ws.canonical_word(wid),
}


@pytest.mark.parametrize("where", ["minus-one", "minus-two", "wall-count"])
@pytest.mark.parametrize("entry", sorted(WALL_ENTRY_POINTS))
def test_wall_outside_the_wall_set_is_rejected(entry, where):
    # -1 and -2 would otherwise read the last walls' least faces, and |walls|
    # raise a bare IndexError
    _, ws = make(CoxeterSystem.right_angled_polygon(6), 2)
    assert len(ws) == 24
    wid = {"minus-one": -1, "minus-two": -2, "wall-count": len(ws)}[where]
    with pytest.raises(OutOfBallError, match=rf"^no wall {wid}: the radius-2 ball has walls 0\.\.23$"):
        WALL_ENTRY_POINTS[entry](ws, wid)
