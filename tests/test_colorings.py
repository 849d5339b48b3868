import paper_checks
import pytest
from paper_checks import (
    MORSE_THUE,
    SQUARES,
    GroupColoring,
    pair_witness,
    product_coloring,
    radial_claim_check,
    radial_claim_scan,
    radial_segment,
    squares_limit_defect,
    transfer_from_subgroup,
    transfer_to_subgroup,
    tree_norm_coloring,
    z_color,
)
from zlattice import ZLattice

from coxtile.colorings import aperiodicity_report, norm_color, norm_coloring
from coxtile.coxeter import CoxeterSystem, enumerate_ball
from coxtile.errors import OutOfBallError, ValidationError, WindowError
from coxtile.sequences import square_free_prefix


def test_norm_coloring_values():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 3)
    col = norm_coloring(ball)
    assert col.value(()) == (0, 0)
    for s in range(5):
        assert col.value((s,)) == (2, 1)  # second ternary term is 2
    assert len(col.palette) == 9


def test_norm_coloring_radial_cycling():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 4)
    col = norm_coloring(ball)
    tern = square_free_prefix(5)
    for g in ball.members():
        seg = radial_segment(ball, g)
        for i, x in enumerate(seg):
            assert col.value(x) == (tern[i], i % 3)


def test_tree_norm_coloring_path_matches_line_restriction():
    n = 10
    vertices = list(range(n))
    edges = [(i, i + 1) for i in range(n - 1)]
    colors = tree_norm_coloring(vertices, edges, 0)
    assert colors[0] == (0, 0)
    for d in range(n):
        assert colors[d] == norm_color(d)
    # edges read once, as from a generator
    assert tree_norm_coloring(range(n), iter(edges), 0) == colors


def test_tree_norm_coloring_depth_uniform():
    #       0
    #     / | \
    #    1  2  3     all depth-1 vertices share one color
    vertices = [0, 1, 2, 3, 4, 5]
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]
    colors = tree_norm_coloring(vertices, edges, 0)
    assert colors[1] == colors[2] == colors[3]
    assert colors[4] == colors[5]


def test_tree_norm_coloring_rejects_disconnected():
    with pytest.raises(ValidationError):
        tree_norm_coloring([0, 1, 2], [(0, 1)], 0)


def test_radial_claim_identity_passes():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 4)
    col = norm_coloring(ball)
    seg = radial_segment(ball, (0, 2, 1, 3))
    assert radial_claim_check(ball, col, (), seg).status == "pass"


def test_radial_claim_scan_pentagon_small():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 5)
    col = norm_coloring(ball)
    scan = radial_claim_scan(ball, col, max_g_norm=2, min_len=4)
    assert scan.failures == []
    # the identity meets the hypotheses on every segment; odd-norm g never
    # can, since left multiplication flips norm parity and hence the mod-3
    # color coordinate
    assert scan.hypotheses_met >= scan.segments


def test_radial_claim_planted_violation_detected():
    # infinite dihedral: reflect about the mirror just beyond the far end of
    # a radial segment; the reflection moves every norm, its displacement at
    # the far end is 1, and recoloring the (disjoint) image forces the
    # hypotheses, so the norm conclusion must be reported violated
    ball = enumerate_ball(CoxeterSystem.infinite_dihedral(), 14)
    col = paper_checks.norm_coloring(ball)
    seg = []
    x = ()
    for s in (0, 1, 0, 1, 0):
        x = ball.mul(x, (s,))
        seg.append(x)
    far = seg[-1]
    g = ball.mul(ball.mul(far, (1,)), ball.inv(far))
    overrides = {}
    for x in seg:
        gx = ball.mul(g, x)
        assert gx not in seg
        overrides[gx] = col.value(x)
    planted = col.overridden(overrides)
    verdict = radial_claim_check(ball, planted, g, seg)
    assert verdict.status == "fail"


def test_transfer_to_subgroup_even_integers():
    lat = ZLattice(1)
    ball = lat.ball(10)
    phi = GroupColoring(
        ball, [0, 1], {x: z_color(MORSE_THUE, x[0]) for x in ball.members()}
    )
    reps = [(0,), (1,)]
    psi = transfer_to_subgroup(ball, phi, reps, lambda x: x[0] % 2 == 0)
    for x in ball.members():
        if x[0] % 2 == 0 and abs(x[0]) < 10:
            assert psi.value(x) == (phi.value(x), phi.value((x[0] + 1,)))


def test_transfer_identity_when_subgroup_is_group():
    lat = ZLattice(1)
    ball = lat.ball(5)
    phi = GroupColoring(ball, [0, 1], {x: x[0] % 2 for x in ball.members()})
    psi = transfer_to_subgroup(ball, phi, [(0,)], lambda x: True)
    for x in ball.members():
        assert psi.value(x) == (phi.value(x),)


def test_transfer_round_trip_tags_cosets():
    lat = ZLattice(1)
    ball = lat.ball(8)
    psi = GroupColoring(
        ball, [0, 1], {x: z_color(MORSE_THUE, x[0] // 2) if x[0] % 2 == 0 else 9 for x in ball.members()}
    )
    reps = [(0,), (1,)]
    member = lambda x: x[0] % 2 == 0
    phi = transfer_from_subgroup(ball, psi, reps, member)
    for x in ball.members():
        i = 1 if x[0] % 2 == 0 else 2
        h = (x[0] - (i - 1),)
        assert phi.value(x) == (psi.value(h), i)
    # forward again recovers per-coset colors componentwise
    psi2 = transfer_to_subgroup(ball, phi, reps, member)
    for x in ball.members():
        if member(x) and abs(x[0]) < 8:
            assert psi2.value(x) == (phi.value(x), phi.value((x[0] + 1,)))


def test_transfer_rejects_bad_transversal():
    lat = ZLattice(1)
    ball = lat.ball(4)
    phi = GroupColoring(ball, [0], {x: 0 for x in ball.members()})
    with pytest.raises(ValidationError):
        transfer_to_subgroup(ball, phi, [(0,), (2,)], lambda x: x[0] % 2 == 0)
    # a transversal that does not start at the identity, for both transfers
    even = lambda x: x[0] % 2 == 0
    for transfer in (transfer_to_subgroup, transfer_from_subgroup):
        for reps in ([(1,), (0,)], []):
            with pytest.raises(ValidationError, match="^first coset representative must be the identity$"):
                transfer(ball, phi, reps, even)


def test_product_coloring_single_tree_reduces():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 2)
    vertices = list(range(6))
    edges = [(i, i + 1) for i in range(5)]
    tree_colors = tree_norm_coloring(vertices, edges, 0)
    orbit = lambda g: min(ball.norm(g), 5)
    prod = product_coloring(ball, [tree_colors], [orbit])
    for g in ball.members():
        assert prod.value(g) == (tree_colors[orbit(g)],)


def test_product_coloring_identical_trees_agree():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 2)
    vertices = list(range(6))
    edges = [(i, i + 1) for i in range(5)]
    tc = tree_norm_coloring(vertices, edges, 0)
    orbit = lambda g: min(ball.norm(g), 5)
    prod = product_coloring(ball, [tc, tc], [orbit, orbit])
    for g in ball.members():
        a, b = prod.value(g)
        assert a == b


def test_product_coloring_orbit_escape():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 2)
    tc = {0: (0, 0)}
    with pytest.raises(OutOfBallError):
        product_coloring(ball, [tc], [lambda g: ball.norm(g)])


def test_aperiodicity_report_norm_coloring_small():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 6)
    col = norm_coloring(ball)
    rep = aperiodicity_report(ball, col, g_range=1, h_range=2, window=3)
    assert rep.all_witnessed
    for (g, h), x in rep.records.items():
        ginv = ball.inv(g)
        assert col.value(ball.mul(ginv, x)) != col.value(x)


def test_aperiodicity_report_inverts_each_g_once(monkeypatch):
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 5)
    col = norm_coloring(ball)
    inverted = []
    real = ball.inv
    monkeypatch.setattr(ball, "inv", lambda u: inverted.append(u) or real(u))
    rep = aperiodicity_report(ball, col, g_range=2, h_range=2, window=2)
    monkeypatch.undo()
    gs = [g for g in ball.members() if 0 < ball.norm(g) <= 2]
    assert len(rep.records) > len(gs)
    assert sorted(inverted) == sorted(gs)
    for (g, h), x in rep.records.items():
        assert x == pair_witness(ball, col, g, h, 2)


def test_aperiodicity_report_reads_norms_off_its_products(monkeypatch):
    # rank 4 with orders infinity, 7 and 8 at R=3: with h_range 3 and window 2
    # most products h u leave the ball, and a norm coloring still never asks
    # the system for a norm, as each product is a normal form
    system = CoxeterSystem(("a", "b", "c", "d"), ((1, 0, 0, 0), (0, 1, 0, 7), (0, 0, 1, 8), (0, 7, 8, 1)))
    ball = enumerate_ball(system, 3)
    col = norm_coloring(ball)
    asked = []
    monkeypatch.setattr(CoxeterSystem, "norm", lambda self, word: asked.append(word))
    rep = aperiodicity_report(ball, col, g_range=2, h_range=3, window=2)
    monkeypatch.undo()
    assert asked == []
    window = [u for u in ball.members() if ball.norm(u) <= 2]
    outside = 0
    for (g, h), x in rep.records.items():
        ginv = ball.inv(g)
        for u in window:  # the first u whose product sees two colors, norms from the system
            hu = system.mul(h, u)
            outside += hu not in ball.index
            if norm_color(system.norm(system.mul(ginv, hu))) != norm_color(system.norm(hu)):
                assert x == hu
                break
        else:
            assert x is None
    assert outside > 500


@pytest.mark.parametrize("ranges", [(-1, 1, 1), (1, -1, 1), (1, 1, -1)], ids=["g", "h", "window"])
def test_aperiodicity_report_rejects_negative_ranges(ranges):
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 2)
    with pytest.raises(WindowError, match="must be nonnegative, got -1$"):
        aperiodicity_report(ball, norm_coloring(ball), *ranges)


@pytest.mark.parametrize("ranges", [(3, 2, 2), (2, 3, 2), (2, 2, 3)], ids=["g", "h", "window"])
def test_aperiodicity_report_refuses_a_ball_smaller_than_a_range(ranges, monkeypatch):
    # a range past the ball's radius would cut the search short: refused
    # before any product, naming the range and the ball
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(6), 2)
    monkeypatch.setattr(ball, "mul_norm", lambda *a: pytest.fail("multiplied before refusing"))
    name = ["g range", "h range", "window"][ranges.index(3)]
    with pytest.raises(WindowError, match=f"^{name} 3 exceeds the radius-2 ball$"):
        aperiodicity_report(ball, norm_coloring(ball), *ranges)


@pytest.mark.parametrize(
    "system",
    [
        CoxeterSystem.right_angled_polygon(6),
        CoxeterSystem(("a", "b", "c", "d"), ((1, 5, 0, 8), (5, 1, 6, 0), (0, 6, 1, 7), (8, 0, 7, 1))),
        CoxeterSystem(("a", "b", "c"), ((1, 2, 3), (2, 1, 7), (3, 7, 1))),
    ],
    ids=["hexagon", "5678", "237"],
)
def test_aperiodicity_report_does_not_depend_on_a_ball_past_its_ranges(system, monkeypatch):
    # on the radius-2 ball many products leave the ball and go through the
    # descent engine (its fixed-point roots where orders pass 3); on the
    # radius-6 ball they walk the table.  The records must agree.
    small, large = enumerate_ball(system, 2), enumerate_ball(system, 6)
    products, real = [], small.mul_norm
    monkeypatch.setattr(small, "mul_norm", lambda g, h: products.append(real(g, h)) or products[-1])
    records = aperiodicity_report(small, norm_coloring(small), 2, 2, 2).records
    assert sum(x not in small.index for x, _norm in products) > len(products) // 5
    assert records == aperiodicity_report(large, norm_coloring(large), 2, 2, 2).records


def test_aperiodicity_constant_coloring_unwitnessed():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 4)
    const = GroupColoring(ball, ["c"], {g: "c" for g in ball.members()}, by_norm=lambda n: "c")
    rep = aperiodicity_report(ball, const, g_range=1, h_range=1, window=2)
    assert not rep.all_witnessed
    assert len(rep.unwitnessed) == len(rep.records)


def test_aperiodicity_squares_gap_pair():
    lat = ZLattice(1)
    rho = 10
    # a defect window wide enough that the gap midpoint clears rho on both
    # sides, including the comparison at x-1
    m = squares_limit_defect(1, 2 * rho + 2)
    center = m * m + m
    ball = lat.ball(center + rho + 2)
    col = GroupColoring(
        ball, [0, 1], {x: z_color(SQUARES, x[0]) for x in ball.members()}
    )
    # targeted probe far from the origin, where the grid cannot reach
    w = pair_witness(ball, col, (1,), (center,), rho)
    assert w is None
    # negative control: near the origin the same pair is witnessed
    w0 = pair_witness(ball, col, (1,), (0,), rho)
    assert w0 is not None


def test_product_coloring_pentagon_wall_trees():
    # five singleton-generator classes, each a tree colored by depth; a group
    # element is colored by the tuple of its orbit points' tree colors, nine
    # colors per tree
    from coxtile.pipeline import build_walls
    from coxtile.walls import build_wall_tree, color_walls

    pent = CoxeterSystem.right_angled_polygon(5)
    ball, ws = build_walls(pent, 4)
    classes = color_walls(ws, {s: s for s in range(5)})
    assert classes.disjoint
    tree_colorings = []
    orbit_maps = []
    inner = [g for g in ball.members() if ball.norm(g) <= 2]
    wall_of = {ws.canonical_word(w.wid): w.wid for w in ws.walls}
    for s in range(5):
        tree = build_wall_tree(ws, classes.by_color[s])
        colors = tree_norm_coloring(tree.vertices, tree.edges, tree.root)
        root_word = ws.canonical_word(tree.root)
        tree_colorings.append(colors)

        def orbit(g, root_word=root_word):
            refl = ball.mul(ball.mul(g, root_word), ball.inv(g))
            return wall_of[refl]

        orbit_maps.append(orbit)

    class InnerView:
        def members(self):
            return inner

    prod = product_coloring(InnerView(), tree_colorings, orbit_maps)
    for g in inner:
        value = prod.value(g)
        assert len(value) == 5
        for coord in value:
            assert coord in {(i, j) for i in range(3) for j in range(3)}
    # the identity sits at every root: all coordinates are the root color
    assert prod.value(()) == ((0, 0),) * 5
    # each coordinate ranges over at most nine colors
    for i in range(5):
        seen = {prod.value(g)[i] for g in inner}
        assert len(seen) <= 9


def test_aperiodicity_report_full_scale():
    # pentagon ball radius 8, displacements to norm 2, translates to norm 3,
    # window 4: every pair must produce a witness
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 8)
    col = norm_coloring(ball)
    rep = aperiodicity_report(ball, col, g_range=2, h_range=3, window=4)
    assert len(rep.records) == 1220
    assert rep.all_witnessed
