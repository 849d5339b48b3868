"""The flat chamber graph: Ball.nbr, its read-only Ball.edges view, and the
WallSet.faces table laid out beside it.

The reference edge map is built independently, by renormalising each stored
word times a generator with CoxeterSystem.normal_form and looking it up in
Ball.index.
"""

import pytest
from wall_faces import wall_of_face

from coxtile.coxeter import CoxeterSystem, enumerate_ball
from coxtile.errors import InconclusiveError, OutOfBallError
from coxtile.walls import enumerate_walls

B3 = CoxeterSystem(("a", "b", "c"), ((1, 4, 2), (4, 1, 3), (2, 3, 1)))
TRIANGLE_33INF = CoxeterSystem(("a", "b", "c"), ((1, 3, 3), (3, 1, 0), (3, 0, 1)))
CASES = [
    (CoxeterSystem.right_angled_polygon(6), 6),
    (TRIANGLE_33INF, 10),
    (B3, 9),  # the whole group (48 elements, longest word 9) and one radius past it
    (B3, 10),
]
IDS = ["hexagon-r6", "triangle-33inf-r10", "b3-r9", "b3-r10"]


def reference_edges(ball):
    system = ball.system
    edges = {}
    for cid, word in enumerate(ball.words):
        for s in range(system.rank):
            nf = system.normal_form(word + (s,))
            if nf in ball.index:
                edges[(cid, s)] = ball.index[nf]
    return edges


@pytest.mark.parametrize("system, radius", CASES, ids=IDS)
def test_edge_view_matches_normal_forms(system, radius):
    ball = enumerate_ball(system, radius)
    want = reference_edges(ball)
    view = ball.edges
    assert len(view) == len(want)
    assert dict(view.items()) == want
    assert sorted(view) == sorted(want)
    for key, jid in want.items():
        assert key in view and view[key] == jid and view.get(key) == jid
    n = system.rank
    for cid in range(len(ball)):
        for s in range(n):
            assert ball.nbr[cid * n + s] == want.get((cid, s), -1)
            assert ((cid, s) in view) == ((cid, s) in want)


@pytest.mark.parametrize("system, radius", CASES, ids=IDS)
def test_edge_view_rejects_keys_outside_the_table(system, radius):
    ball = enumerate_ball(system, radius)
    view, n, size = ball.edges, system.rank, len(ball)
    last = size - 1
    bad = [(0, -1), (last, -1), (0, n), (0, n + 5), (-1, 0), (-1, n - 1), (size, 0), (size + 3, 1),
           (0,), (0, 1, 2), "ab", None]
    for key in bad:
        assert key not in view
        assert view.get(key, "missing") == "missing"
        with pytest.raises(KeyError):
            view[key]
    # edges leaving the ball: upward edges of the outer sphere, none in the finite B3
    outer = [(cid, s) for cid in range(size) for s in range(n) if ball.nbr[cid * n + s] < 0]
    assert bool(outer) == (system is not B3)
    for key in outer:
        with pytest.raises(KeyError):
            view[key]


def test_edge_view_is_read_only():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 2)
    with pytest.raises(TypeError):
        ball.edges[(0, 0)] = 3
    assert ball.edges is ball.edges


@pytest.mark.parametrize("system, radius", CASES, ids=IDS)
def test_faces_hold_the_wall_of_every_ball_edge(system, radius):
    ball = enumerate_ball(system, radius)
    ws = enumerate_walls(ball)
    n = system.rank
    by_edge = {}
    for w in ws.walls:
        for cid, s in w.edges:
            by_edge[(cid, s)] = by_edge[(ball.edges[(cid, s)], s)] = w.wid
    for cid in range(len(ball)):
        for s in range(n):
            wid = ws.faces[cid * n + s]
            assert wid == by_edge.get((cid, s), -1)
            if wid < 0:
                with pytest.raises(InconclusiveError):
                    wall_of_face(ws, cid, s)
            else:
                assert wall_of_face(ws, cid, s) == wid
    for cid, s in [(-1, 0), (0, -1), (0, n), (len(ball), 0)]:  # no such face: bad input
        with pytest.raises(OutOfBallError):
            wall_of_face(ws, cid, s)
