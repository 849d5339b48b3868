"""The ball scan coxtile.walls.color_walls ran before it read palette
validity off the Coxeter matrix, kept as a test oracle: it scans the corners
of every generator pair with finite m_st, then every residue with m_st >= 4,
for two walls of one color that meet in the ball.  Used only by tests.
"""

from itertools import combinations

from coxtile.walls import WallSet


def _climb(wallset: WallSet, x: int, a: int, b: int, steps: int):
    """Walls of the edges up from chamber x along a, b, a, ..., at most `steps`, in the ball."""
    n, nbr = wallset.ball.system.rank, wallset.ball.nbr
    for _ in range(steps):
        i = x * n + a
        if nbr[i] < 0:
            return
        yield wallset.faces[i]
        x, a, b = nbr[i], b, a


def violations(wallset: WallSet, palette: dict) -> list:
    """(chamber id, wall id, wall id) for each corner or residue where two walls of one color meet."""
    ball = wallset.ball
    system, n = ball.system, ball.system.rank
    color = [palette[f % n] for f in wallset.least_faces()]
    faces, nbr, norms = wallset.faces, ball.nbr, ball.norms
    found = []
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n) if system.m(s, t) != 0]
    for k, (s, t) in enumerate(pairs):
        for cid, (w1, w2) in enumerate(zip(faces[s::n], faces[t::n])):
            if w1 != w2 and w1 >= 0 and w2 >= 0 and color[w1] == color[w2]:
                found.append((cid, k, w1, w2))
    met = {frozenset(f[2:]) for f in found}
    for k, (s, t) in enumerate(pairs, len(pairs)):
        m = system.m(s, t)
        if m < 4:
            continue
        for u, level in enumerate(norms):
            if level < ball.radius and norms[nbr[u * n + s]] > level < norms[nbr[u * n + t]]:
                ring = sorted({w for a, b in ((s, t), (t, s)) for w in _climb(wallset, u, a, b, m)})
                found += [(u, k, *p) for p in combinations(ring, 2)
                          if color[p[0]] == color[p[1]] and frozenset(p) not in met]
    return [(cid, w1, w2) for cid, _, w1, w2 in sorted(found)]
