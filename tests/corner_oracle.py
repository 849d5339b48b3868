"""The disjointness certificate of coxtile.walls.color_walls before it
skipped generator pairs whose odd components share no palette color, kept as
a test oracle: it scans the corners of every pair with finite m_st, then
every residue with m_st >= 4.  Used only by tests.
"""

from itertools import combinations

from coxtile.walls import WallSet, _climb


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
