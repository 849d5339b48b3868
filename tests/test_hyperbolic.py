import random
from itertools import product
from math import acosh, cosh, pi, sinh, sqrt

import numpy as np
import pytest

from coxtile.coxeter import CoxeterSystem, enumerate_ball
import coxtile.hyperbolic as hyperbolic
import coxtile.pipeline as pipeline
import placement_oracle
import vertex_key_oracle
from face_sign_oracle import face_signs
from magnitude_oracle import default_magnitudes, render_colors, wall_pair_magnitude
from paper_checks import (
    BASEPOINT,
    convexity_check,
    is_simple_pairwise,
    on_hyperboloid,
    preserves_lorentz_form,
    sample_overlap_fraction,
)
from polygon_geometry import side
from wall_faces import wall_of_face
from coxtile.errors import GeometryError, InconclusiveError, StructureError, ValidationError
from coxtile.hyperbolic import (
    HPolygon,
    PlacedTile,
    build_polygon,
    deform_vertices,
    geodesic_point,
    hyp_dist,
    is_simple,
    lorentz_dot,
    place_tiles,
    reflection_matrices,
    render_svg,
    to_poincare,
)
from coxtile.pipeline import alternating_resolution, build_walls, render_bundle
from coxtile.walls import alternating_palette

J = np.diag([1.0, 1.0, -1.0])


def signs_of(ball, wallset, orientation, placed):
    # the (wall, sign) pairs of every placed chamber, indexed by its id, by
    # the descent rule of tests/face_sign_oracle.py
    return [face_signs(ball, wallset, orientation, tile.cid) for tile in placed]


def law_of_cosines_angle(b, a, c):
    # hyperbolic law of cosines: cos(angle at b) from the three side lengths
    bc = hyp_dist(b, c)
    ba = hyp_dist(b, a)
    ac = hyp_dist(a, c)
    cosg = (cosh(ba) * cosh(bc) - cosh(ac)) / (sinh(ba) * sinh(bc))
    return np.arccos(np.clip(cosg, -1, 1))


def test_build_polygon_right_angles():
    poly = build_polygon(3)
    assert poly.p == 6
    for k in range(6):
        ang = law_of_cosines_angle(
            poly.vertices[k], poly.vertices[k - 1], poly.vertices[(k + 1) % 6]
        )
        assert abs(ang - pi / 2) < 1e-9
    # known circumradius of the right-angled hexagon: cosh R = sqrt(3)
    assert abs(hyp_dist(poly.vertices[0], BASEPOINT) - acosh(sqrt(3))) < 1e-9


def test_build_polygon_rotation_invariance():
    poly = build_polygon(4)
    th = 2 * pi / 8
    rot = np.array(
        [[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1]]
    )
    rotated = (rot @ np.array(poly.vertices).T).T
    rolled = np.roll(np.array(poly.vertices), -1, axis=0)
    assert np.max(np.abs(rotated - rolled)) < 1e-9


def test_build_polygon_nonexistence():
    with pytest.raises(GeometryError):
        build_polygon(2)


def test_reflection_matrices_properties():
    poly = build_polygon(3)
    assert all(preserves_lorentz_form(R, tol=1e-9) for R in reflection_matrices(poly))
    mats = [np.array(R) for R in reflection_matrices(poly)]
    assert len(mats) == 6
    for R in mats:
        assert np.max(np.abs(R @ R - np.eye(3))) < 1e-9
    for k in range(6):
        prod = mats[k] @ mats[(k + 1) % 6]
        assert np.max(np.abs(np.linalg.matrix_power(prod, 2) - np.eye(3))) < 1e-8
    # non-adjacent products have no small power equal to the identity
    for k in range(6):
        for j in range(6):
            if j in (k, (k + 1) % 6, (k - 1) % 6):
                continue
            prod = mats[k] @ mats[j]
            M = np.eye(3)
            for power in range(1, 13):
                M = M @ prod
                assert np.max(np.abs(M - np.eye(3))) > 1e-4


def test_place_tiles_counts_and_constraints():
    system = CoxeterSystem.right_angled_polygon(6)
    ball = enumerate_ball(system, 3)
    poly = build_polygon(3)
    mats = reflection_matrices(poly)
    placed = place_tiles(ball, poly, mats, max_norm=ball.radius)
    assert len(placed) == len(ball)
    assert [(t.cid, t.word) for t in placed] == list(enumerate(ball.words))
    assert np.max(np.abs(np.array(placed[0].vertices) - np.array(poly.vertices))) == 0
    for t in placed:
        for v in t.vertices:
            assert abs(lorentz_dot(v, v) + 1) < 1e-8 and v[2] > 0


def test_neighbors_share_full_side():
    system = CoxeterSystem.right_angled_polygon(6)
    ball = enumerate_ball(system, 2)
    poly = build_polygon(3)
    mats = reflection_matrices(poly)
    placed = place_tiles(ball, poly, mats, max_norm=ball.radius)
    by_word = {t.word: t for t in placed}
    for (i, s), j in ball.edges.items():
        a = by_word[ball.words[i]]
        b = by_word[ball.words[j]]
        # the shared side is side s of both placements
        pa = [a.vertices[s], a.vertices[(s + 1) % 6]]
        pb = [b.vertices[s], b.vertices[(s + 1) % 6]]
        for va, vb in zip(pa, pb):
            # coordinate distance: acosh amplifies dot-product roundoff far
            # beyond the actual agreement of the points
            assert np.linalg.norm(np.array(va) - np.array(vb)) < 1e-7


def test_overlap_fraction_small():
    system = CoxeterSystem.right_angled_polygon(6)
    ball = enumerate_ball(system, 2)
    poly = build_polygon(3)
    placed = place_tiles(ball, poly, reflection_matrices(poly), max_norm=ball.radius)
    assert sample_overlap_fraction(placed, samples_per_tile=30, seed=0) < 1e-6


def test_convexity_check_basics():
    poly = build_polygon(3)
    assert convexity_check(poly.vertices)
    # pull one vertex inward past the chord of its neighbors
    bad = list(poly.vertices)
    bad[0] = geodesic_point(bad[0], BASEPOINT, 0.9)
    assert not convexity_check(bad)


def test_convexity_check_self_intersection():
    poly = build_polygon(3)
    crossed = list(poly.vertices)
    crossed[0], crossed[2] = crossed[2], crossed[0]
    with pytest.raises(GeometryError):
        convexity_check(crossed)


def test_vertex_magnitudes_follow_the_reference_rule(monkeypatch):
    # render's per-wall shades give each displaced vertex of the refined
    # hexagon at R=4 the d that tests/magnitude_oracle.py assigns its a and b
    # colors, bit for bit.  deform_vertices moves base vertex k once for each
    # pair of signs and each d, so the first vertex, in tile order, of each
    # (k, signs, d) brings its d to cosh_sinh, which is spied on while
    # face_metadata, its other caller, is patched out
    seen = []
    real = hyperbolic.cosh_sinh
    monkeypatch.setattr(hyperbolic, "cosh_sinh", lambda d: seen.append(d) or real(d))
    monkeypatch.setattr(pipeline, "face_metadata", lambda *args: None)
    bundle = render_bundle(3, 4, refine=True, epsilon_factor=0.05)
    epsilon = 0.05 * bundle.polygon.side_length()
    magnitude = wall_pair_magnitude(bundle.resolution.wall_colors, True, epsilon)
    want, moved, moves = [], set(), set()
    for tile in bundle.tiles:
        walls = [wall_of_face(bundle.wallset, tile.cid, s) for s in range(6)]
        sides = face_signs(bundle.ball, bundle.wallset, bundle.resolution.orientation, tile.cid)
        signs = [sign for _, sign in sides]
        for k in range(6):
            if (walls[k - 1], walls[k]) not in moved:
                moved.add((walls[k - 1], walls[k]))
                d = magnitude(walls[k - 1], walls[k])
                if (k, signs[k - 1], signs[k], d) not in moves:
                    moves.add((k, signs[k - 1], signs[k], d))
                    want.append(d)
    assert seen == want and len(moved) > 3 * len(moves)
    a_colors, b_colors = render_colors(True)
    rule = default_magnitudes(a_colors, b_colors, epsilon)
    assert len({rule(ca, cb) for ca in a_colors for cb in b_colors}) == 81


def test_deformation_zero_magnitude_is_identity(monkeypatch):
    # each shared vertex is moved once, from the first of its four tiles, so
    # at epsilon 0 a tile's vertices are another tile's placement of them:
    # within 1e-12 of its own, relative to the coordinate's scale, for
    # n = 3-6 and R <= 4.  The ticks overflow past R=4 on the hexagon and
    # sooner on larger polygons, so no face data is made.
    monkeypatch.setattr(pipeline, "face_metadata", lambda *args: None)
    for n, radius, refine in product((3, 4, 5, 6), range(5), (True, False)):
        bundle = render_bundle(n, radius, refine=refine, epsilon_factor=0.0)
        placed = place_tiles(bundle.ball, bundle.polygon, bundle.matrices, max_norm=radius)
        assert [(t.cid, t.matrix) for t in bundle.tiles] == [(t.cid, t.matrix) for t in placed]
        for t0, t1 in zip(placed, bundle.tiles):
            want, got = np.array(t0.vertices), np.array(t1.vertices)
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12, (n, radius, refine)


def test_deformed_tiles_convex_and_face_to_face():
    # each shared vertex is one float triple, moved or not, so neighbours
    # meet exactly, deformed and at epsilon 0, refined and not
    for epsilon, refine in [(0.05, True), (0.05, False), (0.0, True), (0.0, False)]:
        bundle = render_bundle(3, 3, refine=refine, epsilon_factor=epsilon)
        ball = bundle.ball
        by_word = {t.word: t for t in bundle.tiles}
        for t in bundle.tiles:
            assert convexity_check(t.vertices)
        for (i, s), j in ball.edges.items():
            wa, wb = ball.words[i], ball.words[j]
            if wa not in by_word or wb not in by_word:
                continue
            a, b = by_word[wa], by_word[wb]
            for k in (s, (s + 1) % 6):
                assert a.vertices[k] == b.vertices[k], (epsilon, refine, wa, wb, k)


def test_deformed_hyperboloid_constraint():
    bundle = render_bundle(3, 2, refine=True, epsilon_factor=0.05)
    for t in bundle.tiles:
        for v in t.vertices:
            assert abs(lorentz_dot(v, v) + 1) < 1e-8


def test_render_svg_empty_and_single():
    empty = render_svg([], [], stroke_width=0.004)
    assert empty.count("<circle") == 1
    assert "<g" not in empty
    bundle = render_bundle(3, 0, refine=True, epsilon_factor=0.05)
    one = render_svg(bundle.tiles, bundle.face_data, stroke_width=0.004)
    assert one.count("<g ") == 1
    assert 'data-word="e"' in one


def test_render_svg_tile_count_and_determinism():
    bundle = render_bundle(3, 1, refine=False, epsilon_factor=0.0)
    svg1 = render_svg(bundle.tiles, bundle.face_data, stroke_width=0.004)
    svg2 = render_svg(bundle.tiles, bundle.face_data, stroke_width=0.004)
    assert svg1 == svg2
    assert svg1.count("<g ") == 7  # |B_1| of the hexagon group


def test_render_points_inside_disk():
    bundle = render_bundle(3, 1, refine=False, epsilon_factor=0.0)
    for t in bundle.tiles:
        for v in t.vertices:
            x, y = v[0] / (1 + v[2]), v[1] / (1 + v[2])
            assert x * x + y * y < 1.0


def test_render_bundle_leaves_words_and_index_unbuilt():
    # a placed tile's word is its ShortLex parent's and its last letter, so
    # render spells the words of the placed tiles only, not the R+1 ball's
    bundle = render_bundle(3, 4, refine=True, epsilon_factor=0.05)
    ball = bundle.ball
    assert "words" not in ball.__dict__ and "index" not in ball.__dict__
    assert [t.word for t in bundle.tiles] == ball.words[:len(bundle.tiles)]
    assert len(bundle.tiles) < len(ball)


def test_is_simple_matches_the_pairwise_segment_test():
    # random rings of 3 to 9 points above the Klein disk's plane, and the
    # deformed tiles of a render: the same verdict as the test by index pairs
    rng = random.Random(11)
    rings = [
        [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 2)) for _ in range(rng.randint(3, 9))]
        for _ in range(3000)
    ]
    rings += [t.vertices for t in render_bundle(3, 3, refine=True, epsilon_factor=0.05).tiles]
    verdicts = [is_simple(ring) for ring in rings]
    assert verdicts == [is_simple_pairwise(ring) for ring in rings]
    assert True in verdicts and False in verdicts


def test_deform_simplicity_error_names_vertex():
    # with the 81 refined magnitudes, a large epsilon collides vertices
    with pytest.raises(GeometryError, match="vertex"):
        render_bundle(3, 2, refine=True, epsilon_factor=10.0)


def test_render_overflow_raises_geometry_error_naming_the_chamber():
    # past its range the tick or the vertex displacement leaves the floats
    # chambers are spelled in generator names, e for the identity
    with pytest.raises(GeometryError, match=r"^tick of chamber s2\.s5\.s2\.s5\.s2 .*smaller radius or epsilon$"):
        render_bundle(3, 5, refine=True, epsilon_factor=0.05)
    with pytest.raises(GeometryError, match=r"^vertex 0 of chamber e: .*smaller magnitude$"):
        render_bundle(3, 1, refine=True, epsilon_factor=1e6)
    # a finite factor whose magnitudes are infinite: math.cosh(inf) does not raise
    with pytest.raises(GeometryError, match="smaller magnitude$"):
        render_bundle(3, 1, refine=True, epsilon_factor=1.7e308)


def test_render_errors_name_the_chamber_and_the_cure():
    with pytest.raises(GeometryError, match=r"^deformation breaks simplicity at chamber s2\.s3: .*smaller magnitude$"):
        render_bundle(3, 2, refine=True, epsilon_factor=10.0)
    # the deformed vertices have moved so far (about 1e30) that a side's
    # midpoint has no tangent toward the tile's center
    with pytest.raises(GeometryError, match=r"^side 1 of chamber e: degenerate tangent direction; use an epsilon of smaller magnitude$"):
        render_bundle(3, 1, refine=True, epsilon_factor=50.0)


def test_face_metadata_names_a_side_without_a_tangent():
    # a planted tile whose vertices coincide: no side's midpoint has a tangent
    # toward the tile's center
    bundle = render_bundle(3, 1, refine=True, epsilon_factor=0.0)
    res = bundle.resolution
    tile = PlacedTile(0, (), bundle.tiles[0].matrix, (bundle.polygon.vertices[0],) * 6)
    signs = signs_of(bundle.ball, bundle.wallset, res.orientation, [tile])
    with pytest.raises(GeometryError, match=r"^side 0 of chamber e: degenerate tangent direction; .*smaller magnitude$"):
        pipeline.face_metadata([tile], bundle.ball, signs, res.wall_colors)


def test_render_builds_no_word_index():
    # tiles carry their chamber ids, so render looks no word up
    assert "index" not in render_bundle(3, 2, refine=True, epsilon_factor=0.05).ball.__dict__


def test_face_signs_on_the_outer_sphere_are_inconclusive():
    # a tile on the ball's outer sphere has faces whose walls the ball does not
    # reach, so the descent rule has no sign for them; render_bundle places
    # no such tile, as it enumerates one radius past the tiles it draws
    system = CoxeterSystem.right_angled_polygon(6)
    ball, ws = build_walls(system, 2)
    res = alternating_resolution(ws, alternating_palette(system))
    poly = build_polygon(3)
    placed = place_tiles(ball, poly, reflection_matrices(poly), max_norm=ball.radius)
    with pytest.raises(InconclusiveError, match="enlarge the radius"):
        signs_of(ball, ws, res.orientation, placed)


@pytest.mark.parametrize("refine", [True, False], ids=["refined", "unrefined"])
@pytest.mark.parametrize("n, radius", [(n, r) for n in (3, 4, 5, 6) for r in range(5)])
def test_render_reads_the_descent_rule_off_face_rows(n, radius, refine, monkeypatch):
    # the signs render_bundle hands to deform_vertices and face_metadata,
    # read off WallSet.face_rows, against the descent rule on every placed tile
    seen = []
    monkeypatch.setattr(pipeline, "face_metadata", lambda tiles, ball, signs, colors: seen.append(signs))
    bundle = render_bundle(n, radius, refine=refine, epsilon_factor=0.0)
    (signs,) = seen
    assert len(signs) == len(bundle.tiles) == sum(bundle.ball.sphere_sizes[:radius + 1])
    orientation = bundle.resolution.orientation
    for tile in bundle.tiles:
        assert signs[tile.cid] == face_signs(bundle.ball, bundle.wallset, orientation, tile.cid)


def test_render_refuses_face_rows_that_do_not_start_at_e(monkeypatch):
    # signs are read by position, so a planted face_rows whose interior
    # starts at chamber 1 would mis-sign every tile without the check
    real = pipeline.build_walls

    def planted(system, radius):
        ball, ws = real(system, radius)
        interior, rows = ws.face_rows
        ws.__dict__["face_rows"] = (interior[1:], rows[system.rank:])
        return ball, ws

    monkeypatch.setattr(pipeline, "build_walls", planted)
    with pytest.raises(StructureError, match=r"^the first 7 interior chambers are not chambers 0 to 6$"):
        render_bundle(3, 1, refine=True, epsilon_factor=0.05)


@pytest.mark.parametrize("n, radius", [(n, r) for n in (3, 4, 5) for r in (2, 3, 4)])
def test_wall_pairs_name_vertices_as_the_four_chambers_do(n, radius):
    # vertex k of chamber g is where its walls of sides k-1 and k cross
    ball, ws = build_walls(CoxeterSystem.right_angled_polygon(2 * n), radius + 1)
    by_walls, by_name = {}, {}
    for cid in range(sum(ball.sphere_sizes[:radius + 1])):
        walls = [wall_of_face(ws, cid, s) for s in range(2 * n)]
        for k in range(2 * n):
            by_walls.setdefault((walls[k - 1], walls[k]), []).append((cid, k))
            by_name.setdefault(vertex_key_oracle._vertex_key(ball, cid, k), []).append((cid, k))
    assert sorted(by_walls.values()) == sorted(by_name.values())


@pytest.mark.parametrize("refine", [True, False], ids=["refined", "unrefined"])
@pytest.mark.parametrize("n, radius", [(n, r) for n in (3, 4, 5) for r in (2, 3, 4)])
def test_deformed_vertices_group_as_the_four_chamber_names(n, radius, refine, monkeypatch):
    # the (tile, k) pairs deform_vertices moves to one point must be those
    # that the least of the four chambers around the vertex names alike.
    # The ticks overflow past R=4 on the hexagon and sooner on larger
    # polygons, so no face data is made.
    monkeypatch.setattr(pipeline, "face_metadata", lambda *args: None)
    bundle = render_bundle(n, radius, refine=refine, epsilon_factor=0.05)
    by_point, by_name = {}, {}
    for tile in bundle.tiles:
        for k, v in enumerate(tile.vertices):
            by_point.setdefault(v, []).append((tile.cid, k))
            by_name.setdefault(vertex_key_oracle._vertex_key(bundle.ball, tile.cid, k), []).append((tile.cid, k))
    assert sorted(by_point.values()) == sorted(by_name.values())


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_render_rejects_floats_that_are_not_finite(value):
    with pytest.raises(ValidationError, match="epsilon factor must be finite"):
        render_bundle(3, 1, refine=True, epsilon_factor=value)
    with pytest.raises(ValidationError, match="stroke width must be finite and nonnegative"):
        render_svg([], [], stroke_width=value)
    with pytest.raises(ValidationError, match="stroke width must be finite and nonnegative"):
        render_svg([], [], stroke_width=-0.5)


def test_deformation_is_convex_at_small_epsilon():
    def probe(eps):
        try:
            bundle = render_bundle(3, 2, refine=True, epsilon_factor=eps)
        except GeometryError:
            return False
        return all(convexity_check(t.vertices) for t in bundle.tiles)

    assert probe(0.05)
    assert not probe(10.0)


def test_total_area_bounded_by_covering_disk():
    # each right-angled 2n-gon has area (2n-2)pi - 2n*(pi/2) by angle defect;
    # the tiles pack disjointly, so total area fits inside the disk that
    # covers every vertex
    from math import cosh, pi

    bundle = render_bundle(3, 2, refine=False, epsilon_factor=0.0)
    tile_area = (6 - 2) * pi - 6 * (pi / 2)
    total = len(bundle.tiles) * tile_area
    r_max = max(
        hyp_dist(BASEPOINT, v) for t in bundle.tiles for v in t.vertices
    )
    disk_area = 2 * pi * (cosh(r_max) - 1)
    assert total <= disk_area


def numpy_side_normal(a, b):
    # the cross-product side normal, a reference for the closed-form polygon.normals
    n = J @ np.cross(a, b)
    return n / sqrt(lorentz_dot(n, n))


def numpy_displace_vertex(ball, wallset, tile, cid, k, orientation, magnitude):
    # the numpy vector form of the deformation before it moved vertices in the
    # base tile's frame, kept as its reference: side normals from the placed
    # vertices, each signed by the side of it the basepoint is on, and d from
    # the reference magnitude of the two walls
    p = ball.system.rank
    verts = np.array(tile.vertices)
    point = verts[k]
    walls = [wall_of_face(wallset, cid, s) for s in ((k - 1) % p, k)]
    direction = np.zeros(3)
    for s, wid in zip(((k - 1) % p, k), walls):
        n = numpy_side_normal(verts[s], verts[(s + 1) % p])
        base_side = lorentz_dot(BASEPOINT, n)
        direction += n * (1.0 if base_side > 0 else -1.0) * orientation[wid]
    d = magnitude(*walls)
    u = direction / sqrt(lorentz_dot(direction, direction))
    u = u + lorentz_dot(u, point) * point
    u /= sqrt(lorentz_dot(u, u))
    return cosh(d) * point + sinh(d) * u


def assert_moved_on_bisectors(placed, deformed, polygon, wallset, res, magnitude):
    # every moved vertex P' of a placed vertex P lies on the hyperboloid, at
    # distance d from P, and on the bisector of the quadrant its two walls
    # bound on the positive side each tile sees: its Lorentz product with
    # each signed wall normal is sinh(d) / sqrt 2.  A wall's sign is read off
    # the placed geometry, the side of the wall's normal the basepoint is on,
    # not off a descent.  Each within 1e-12 |P|^2.
    p = polygon.p
    normals = [np.array(n) for n in polygon.normals]
    assert [t.cid for t in deformed] == [t.cid for t in placed]
    for tile, moved in zip(placed, deformed):
        M = np.array(tile.matrix)
        walls = [wall_of_face(wallset, tile.cid, s) for s in range(p)]
        signed = [
            res.orientation[w] * np.sign(lorentz_dot(BASEPOINT, M @ n)) * (M @ n)
            for w, n in zip(walls, normals)
        ]
        for k in range(p):
            P, Q = tile.vertices[k], moved.vertices[k]
            tol = 1e-12 * float(np.dot(P, P))
            d = magnitude(walls[k - 1], walls[k])
            assert abs(lorentz_dot(Q, Q) + 1.0) <= tol
            assert abs(-lorentz_dot(P, Q) - cosh(d)) <= tol
            for n in (signed[k - 1], signed[k]):
                assert abs(lorentz_dot(Q, n) - sinh(d) / sqrt(2.0)) <= tol


@pytest.mark.parametrize("n", [3, 4])
def test_side_normals_and_moved_vertices_match_numpy(n):
    # the closed-form side normals match the numpy cross products of the base
    # sides within 1e-15 of their largest entry; each form is about 1e-15 off
    # the exact normal at n = 4.  The deformation moves vertices in the base
    # tile's frame, so it matches the numpy form, which takes its normals from
    # the placed vertices, within rounding at n = 3; at n = 4 the reference's
    # own cross products cancel to 1.5e-8, so the moved vertices are checked
    # against their defining identities instead.
    bundle = render_bundle(n, 3, refine=True, epsilon_factor=0.05)
    ball, ws, res, poly = bundle.ball, bundle.wallset, bundle.resolution, bundle.polygon
    placed = place_tiles(ball, poly, bundle.matrices, max_norm=3)
    magnitude = wall_pair_magnitude(res.wall_colors, True, 0.05 * poly.side_length())
    for k, normal in enumerate(poly.normals):
        want = numpy_side_normal(*side(poly, k))
        assert np.max(np.abs(np.array(normal) - want)) <= 1e-15 * np.max(np.abs(want))
    for tile, moved in zip(placed, bundle.tiles):
        for k in range(2 * n):
            if n == 3:
                want = numpy_displace_vertex(ball, ws, tile, tile.cid, k, res.orientation, magnitude)
                assert np.max(np.abs(np.array(moved.vertices[k]) - want) / np.maximum(1.0, np.abs(want))) <= 1e-11
    if n == 4:
        assert_moved_on_bisectors(placed, bundle.tiles, poly, ws, res, magnitude)


@pytest.mark.parametrize("n", [3, 4])
def test_a_vertex_moves_alike_from_each_of_its_four_chambers(n):
    # in id order the least of the four chambers around a vertex moves it,
    # and no descent is among its two sides there; in reverse order the
    # greatest does, with both sides descents, so only the sign rule can
    # bring it to the same point
    system = CoxeterSystem.right_angled_polygon(2 * n)
    ball, ws = build_walls(system, 4)
    res = alternating_resolution(ws, alternating_palette(system))
    poly = build_polygon(n)
    placed = place_tiles(ball, poly, reflection_matrices(poly), max_norm=3)
    shades = [0] * len(res.wall_colors)  # unrefined, every wall's shade is 0
    rest = (poly, signs_of(ball, ws, res.orientation, placed), shades, 0.05 * poly.side_length())
    forward = deform_vertices(ball, placed, *rest)
    backward = deform_vertices(ball, placed[::-1], *rest)[::-1]
    for tile, a, b in zip(placed, forward, backward):
        for P, u, v in zip(tile.vertices, a.vertices, b.vertices):
            assert np.max(np.abs(np.array(u) - np.array(v))) <= 1e-12 * float(np.dot(P, P))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_radius_4_deforms_with_every_vertex_on_its_bisector(n, monkeypatch):
    # the decagon and the 12-gon reach coordinates near 1e5 at R=4, where side
    # normals taken from placed vertices cancel; moving in the base frame does
    # not.  The ticks overflow there, so no face data is made.
    monkeypatch.setattr(pipeline, "face_metadata", lambda *args: None)
    bundle = render_bundle(n, 4, refine=True, epsilon_factor=0.05)
    placed = place_tiles(bundle.ball, bundle.polygon, bundle.matrices, max_norm=4)
    magnitude = wall_pair_magnitude(bundle.resolution.wall_colors, True, 0.05 * bundle.polygon.side_length())
    assert_moved_on_bisectors(placed, bundle.tiles, bundle.polygon, bundle.wallset, bundle.resolution, magnitude)


def numpy_reflection_matrices(polygon):
    # the numpy matrix form of reflection_matrices, kept as its reference
    out = []
    for k in range(polygon.p):
        n = numpy_side_normal(*side(polygon, k))
        out.append(np.eye(3) - 2.0 * np.outer(n, J @ n))
    return out


def numpy_place_tiles(ball, polygon, matrices, max_norm):
    # the numpy `@` form of place_tiles, kept as its reference: word -> (matrix, vertices)
    mats = {(): np.eye(3)}
    vertices = np.array(polygon.vertices)
    out = {}
    for w in ball.words:
        if len(w) > max_norm:
            continue
        if w:
            mats[w] = mats[w[:-1]] @ matrices[w[-1]]
        out[w] = (mats[w], (mats[w] @ vertices.T).T)
    return out


@pytest.mark.parametrize("n, radius", [(3, 4), (3, 6), (4, 3)])
def test_float_placement_matches_numpy(n, radius):
    # BLAS may fuse or reorder the 3x3 products, so agreement is relative to
    # each entry's scale rather than bit for bit
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(2 * n), radius)
    poly = build_polygon(n)
    mats = reflection_matrices(poly)
    for got, want in zip(mats, numpy_reflection_matrices(poly)):
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    want = numpy_place_tiles(ball, poly, [np.array(R) for R in mats], radius)
    placed = place_tiles(ball, poly, mats, max_norm=radius)
    assert [t.word for t in placed] == list(want)
    for tile in placed:
        for got, ref in zip((tile.matrix, tile.vertices), want[tile.word]):
            assert np.max(np.abs(np.array(got) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("radius", [6, 7])
def test_placement_matches_the_integer_oracle(radius):
    # the hexagon's tiles placed by exact integer matrices in the basis of its
    # side normals (tests/placement_oracle.py): the plain float product stays
    # within 1e-13 of them in the Poincare disk
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(6), radius)
    poly = build_polygon(3)
    want = placement_oracle.placed_vertices(ball.words, poly.vertices)
    worst = 0.0
    for tile in place_tiles(ball, poly, reflection_matrices(poly), max_norm=ball.radius):
        ref = want[tile.word]
        got = np.array([to_poincare(v) for v in tile.vertices])
        worst = max(worst, np.max(np.abs(got - ref[:, :2] / (1.0 + ref[:, 2:]))))
    assert worst <= 1e-13
