"""How coxtile.hyperbolic.deform_vertices named a geometric vertex before it
used the pair of walls crossing there: by the least of the four chambers
around it.  Kept as a test oracle; used only by tests.
"""


def _vertex_key(ball, cid: int, k: int):
    """Canonical id of the geometric vertex k of chamber cid = g.

    The four chambers around the vertex are g, g s_{k-1}, g s_k and
    g s_{k-1} s_k, and each sees the point as its own vertex k.  Ids are in
    ShortLex order and the least of the four has norm at most |g|, so the
    least in-ball id among them names the point by that ShortLex-least word.
    """
    p, nbr = ball.system.rank, ball.nbr
    a, b = nbr[cid * p + (k - 1) % p], nbr[cid * p + k]
    ab = nbr[a * p + k] if a >= 0 else -1
    return (ball.words[min(x for x in (cid, a, b, ab) if x >= 0)], k)
