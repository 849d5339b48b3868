"""Walls identified by dihedral coset walks, checked against two oracles.

Two upward edges (g, s) and (h, u) cross one wall exactly when the
reflections g s g^-1 and h u h^-1 are equal; oracle_canonical spells each
reflection in braid-closure normal form.  root_oracle.oracle_walls names each
wall by its exact root in Z[zeta_2N] (root_oracle.ExactReflection), as
coxtile.walls did before the coset walks; the seeded differential test
compares it with `enumerate_walls` face for face and wall for wall.  Neither
oracle walks a coset.  The Wall objects `WallSet.walls` spells on first read
must say what the flat edge tables say.  The right-angled `walls` reports are
pinned by sha256, so any change to a wall id, class, level or tree parent
shows.
"""

import hashlib
import io
import random

import pytest
from braid_oracle import oracle_canonical
from root_oracle import ExactReflection, _cyclotomic, oracle_walls

from coxtile.cli import main
from coxtile.coxeter import CoxeterSystem, enumerate_ball
from coxtile.errors import SizeLimitError
from coxtile.walls import enumerate_walls


def triangle(a, b, c):
    """Rank-3 system with m(0,1) = a, m(0,2) = b, m(1,2) = c (0 is infinity)."""
    return CoxeterSystem(("a", "b", "c"), ((1, a, b), (a, 1, c), (b, c, 1)))


def oracle_partition(ball):
    """Upward edges grouped by their reflection, groups in order of first edge."""
    system = ball.system
    groups = {}
    for g, w in enumerate(ball.words):
        for s in range(system.rank):
            h = ball.edges.get((g, s))
            if h is not None and ball.norms[h] > ball.norms[g]:
                reflection = oracle_canonical(system, w + (s,) + tuple(reversed(w)))
                groups.setdefault(reflection, []).append((g, s))
    return list(groups.values())


@pytest.mark.parametrize(
    "system, radius, count",
    [
        (triangle(4, 5, 0), 7, 246),
        (triangle(2, 4, 4), 8, 27),
        (triangle(3, 3, 0), 8, 175),
        (triangle(4, 2, 3), 9, 9),  # B3: the whole group, one wall per reflection
    ],
    ids=["(4,5,inf)", "(2,4,4)", "(3,3,inf)", "B3"],
)
def test_walls_equal_oracle_partition(system, radius, count):
    ball = enumerate_ball(system, radius)
    ws = enumerate_walls(ball)
    assert len(ws) == count
    assert [w.edges for w in ws.walls] == oracle_partition(ball)
    for cid in range(len(ball)):
        assert len(ws.sep[cid]) == ball.norms[cid]


def random_system(rng, rank, orders):
    """Rank-`rank` system with each off-diagonal order drawn from `orders`."""
    matrix = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            matrix[i][j] = matrix[j][i] = rng.choice(orders)
    return CoxeterSystem(tuple("abcdfg"[:rank]), tuple(map(tuple, matrix)))


@pytest.mark.parametrize(
    "system, radius",
    [(random_system(random.Random(seed), 3 + seed % 4, (2, 0)), 9 - seed % 4) for seed in range(6)]
    + [(triangle(3, 3, 0), 10), (triangle(4, 5, 0), 7), (triangle(4, 2, 3), 9)],
    ids=[f"right-angled-{seed}" for seed in range(6)] + ["(3,3,inf)", "(4,5,inf)", "B3"],
)
def test_wall_objects_spell_the_edge_tables(system, radius):
    ball = enumerate_ball(system, radius)
    ws = enumerate_walls(ball)
    n, start, table = system.rank, ws.edge_start, ws.edge_faces
    assert start[0] == 0 and start[-1] == len(table)
    assert "walls" not in vars(ws) and len(ws.walls) == len(ws) == len(start) - 1
    for w, wall in enumerate(ws.walls):
        faces = list(table[start[w]:start[w + 1]])
        # the wall's upward edges, in increasing order
        assert faces and faces == sorted(faces)
        assert all(ws.faces[f] == w and ball.norms[ball.nbr[f]] > ball.norms[f // n] for f in faces)
        g, s = divmod(faces[0], n)
        assert wall.wid == w and wall.edges == [divmod(f, n) for f in faces]
        assert wall.generator == s and wall.determinate == (ball.norms[g] + 1 <= radius - 2)
    # every upward edge below the outer sphere belongs to exactly one wall
    upward = [i for i, h in enumerate(ball.nbr)
              if ball.norms[i // n] < radius and ball.norms[h] > ball.norms[i // n]]
    assert sorted(table) == upward


def test_h3_has_one_wall_per_reflection():
    ball = enumerate_ball(triangle(5, 2, 3), 15)
    ws = enumerate_walls(ball)
    assert len(ball) == 120 and ball.sphere_sizes[-1] == 1
    assert len(ws) == 15
    # every wall separates the identity from the longest element
    assert len(ws.sep[len(ball) - 1]) == 15


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 12])
def test_finite_dihedral_has_m_walls(m):
    ball = enumerate_ball(CoxeterSystem.dihedral(m), m)
    assert len(enumerate_walls(ball)) == m


def test_cyclotomic_polynomials():
    assert _cyclotomic(2) == [1, 1]
    assert _cyclotomic(8) == [1, 0, 0, 0, 1]
    assert _cyclotomic(10) == [1, -1, 1, -1, 1]
    assert _cyclotomic(12) == [1, 0, -1, 0, 1]


def test_integer_orders_keep_integer_coordinates():
    rep = ExactReflection(triangle(3, 3, 0))
    assert rep.simple_roots == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert rep.add_multiple[0][1]((0, 1, 0), (1, 0, 0)) == (1, 1, 0)
    assert rep.add_multiple[1][2]((0, 0, 1), (0, 1, 0)) == (0, 2, 1)
    assert rep.add_multiple[0][0]((1, 0, 0), (1, 0, 0)) == (-1, 0, 0)


def test_irrational_coefficient_squares_exactly():
    # m = 4: 2cos(pi/4) = sqrt 2 in Z[zeta_8]; applied twice it multiplies by 2
    rep = ExactReflection(CoxeterSystem.dihedral(4))
    zero = (0,) * 8
    once = rep.add_multiple[0][1](zero, rep.simple_roots[0])
    assert rep.add_multiple[0][1](zero, once) == tuple(2 * x for x in rep.simple_roots[0])


# orders 5, 6, 7 and 8: the roots live in Z[zeta_1680], 384 integers per coordinate
RANK4_5678 = CoxeterSystem(tuple("abcd"), ((1, 5, 6, 7), (5, 1, 8, 5), (6, 8, 1, 6), (7, 5, 6, 1)))


def assert_walls_match_root_oracle(ball):
    ws, oracle = enumerate_walls(ball), oracle_walls(ball)
    assert ws.faces == oracle.faces
    assert list(ws.edge_start) == oracle.edge_start and list(ws.edge_faces) == oracle.edge_faces
    table = [(w.wid, w.edges, w.generator, w.determinate) for w in ws.walls]
    assert table == [(w.wid, w.edges, w.generator, w.determinate) for w in oracle.walls]


@pytest.mark.parametrize(
    "system, radius",
    [
        (CoxeterSystem.right_angled_polygon(6), 8),
        (triangle(3, 3, 0), 20),
        (triangle(2, 3, 7), 30),
        (triangle(3, 3, 3), 40),  # affine A2: every order is 3, so ties at every level
        (RANK4_5678, 7),
    ],
    ids=["hexagon", "(3,3,inf)", "(2,3,7)", "(3,3,3)", "rank4-5678"],
)
def test_walls_match_the_root_oracle(system, radius):
    assert_walls_match_root_oracle(enumerate_ball(system, radius))


def test_walls_match_the_root_oracle_random():
    orders = [2, 3, 4, 5, 6, 8, 10, 12, 0]
    rng = random.Random(20261018)
    for _ in range(12):
        system = random_system(rng, rng.randint(3, 6), orders)
        radius = rng.randint(5, 12)
        while True:  # the largest radius up to the drawn one whose ball fits the cap
            try:
                ball = enumerate_ball(system, radius, cap=6000)
                break
            except SizeLimitError:
                radius -= 1
        assert_walls_match_root_oracle(ball)


# re-recorded when the rows once printed with the level "indeterminate" took
# their exact levels and parents; every other byte is unchanged
WALLS_REPORT_SHA256 = {
    ("hexagon", "alternating"): "1f65d8d880e33841681a5133f1de75e707db15f2cec31fc66fc7e22b66feb6d4",
    ("pentagon", "distinct"): "6befda131370f60eab5aaa79bb82ca15ee4ab603b2c6cac0a0ab58f4737e0d52",
}


@pytest.mark.parametrize("system, palette", sorted(WALLS_REPORT_SHA256))
def test_walls_report_bytes(system, palette):
    buf = io.StringIO()
    code = main(["walls", "--system", system, "--radius", "6", "--palette", palette], out=buf)
    assert code == 0
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == WALLS_REPORT_SHA256[(system, palette)]
