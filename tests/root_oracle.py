"""Exact roots of the standard reflection representation, and the
root-keyed wall identification that coxtile.walls replaced, kept as test
oracles.

ExactReflection computes every root in Z[zeta_2N], so equal roots are equal
walls; oracle_walls names walls by hashing one root per upward edge.  It
knows nothing of dihedral cosets, so it checks the coset-walk identification
of `coxtile.walls.enumerate_walls` table for table.  tests/ball_oracle.py
keys its chambers with the same arithmetic.  Used only by tests.
"""

from itertools import accumulate
from math import gcd, lcm
from operator import add, neg, sub

from coxtile.coxeter import _INTEGER_2COS, Ball, CoxeterSystem
from coxtile.walls import Wall, WallSet


def _poly_quotient(poly: list[int], monic: list[int]) -> list[int]:
    """Quotient by a monic integer polynomial (constant term first)."""
    rem, e = list(poly), len(monic) - 1
    quot = [0] * (len(rem) - e)
    for k in range(len(rem) - 1, e - 1, -1):
        quot[k - e] = c = rem[k]
        for j, m in enumerate(monic):
            rem[k - e + j] -= c * m
    return quot


def _substitute_power(poly: list[int], k: int) -> list[int]:
    """Coefficients of p(x^k) from those of p(x)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


def _cyclotomic(n: int) -> list[int]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first:
    Phi_rp(x) = Phi_r(x^p) / Phi_r(x) for each prime p of n, from Phi_1 = x - 1
    up to the radical r of n, and then Phi_n(x) = Phi_r(x^(n/r))."""
    poly, rad = [-1, 1], 1
    for p in range(2, n + 1):
        if n % p == 0 and gcd(p, rad) == 1:  # p is prime: its smaller factors are in rad
            poly, rad = _poly_quotient(_substitute_power(poly, p), poly), rad * p
    return _substitute_power(poly, n // rad)


class ExactReflection:
    """The roots of the standard reflection representation, exactly.

    Every 2cos(pi/m) lies in Z[zeta_2N] = Z[x]/Phi_2N(x), where N is the lcm
    of the orders m whose 2cos(pi/m) is irrational.  A coordinate is its
    integer vector in the power basis 1, x, ..., x^(d-1), d = deg Phi_2N, and
    a vector of the rank-n representation is a flat tuple of n*d integers,
    coordinate i in block i, so equal tuples are equal vectors.  When every
    order is 2, 3 or infinity, N = 1 and d = 1: coordinates are plain integers.

    `simple_roots` and `add_multiple`, which steps a root across a face, are
    all that oracle_walls and tests/ball_oracle.py use.
    """

    def __init__(self, system: CoxeterSystem):
        n = system.rank
        orders = {m for row in system.matrix for m in row}
        big = lcm(1, *(m for m in orders if m not in _INTEGER_2COS))
        phi = _cyclotomic(2 * big)
        d = len(phi) - 1
        lower = [(j, c) for j, c in enumerate(phi[:d]) if c]
        self.simple_roots = [tuple(int(k == i * d) for k in range(n * d)) for i in range(n)]

        def scaler(m):
            if m in _INTEGER_2COS:
                return lambda y, c=_INTEGER_2COS[m]: map(c.__mul__, y)
            # 2cos(pi/m) = x^a + x^-a with x^a = zeta_2m, a = N/m; multiply in
            # Z[x]/(x^N + 1), which Phi_2N divides, then reduce
            a = big // m

            def scale(y):
                out = []
                for i in range(0, len(y), d):
                    z = [0] * (2 * big)  # coefficients mod x^2N - 1; l - a < 0 wraps
                    for l, v in enumerate(y[i : i + d]):
                        z[l + a] += v
                        z[l - a] += v
                    z = list(map(sub, z[:big], z[big:]))  # x^N = -1
                    for k in range(big - 1, d - 1, -1):  # reduce mod Phi_2N
                        if c := z[k]:
                            for j, p in lower:
                                z[k - d + j] -= c * p
                    out += z[:d]
                return out

            return scale

        scale = {m: scaler(m) for m in orders}
        # add_multiple[t][s](x, y) is the vector x + 2cos(pi/m_ts) y
        self.add_multiple = [
            [lambda x, y, c=scale[system.m(t, s)]: tuple(map(add, x, c(y))) for s in range(n)]
            for t in range(n)
        ]


def oracle_walls(ball: Ball) -> WallSet:
    """Identify every wall crossing an edge of the ball by its root.

    Chambers are visited in id (ShortLex) order, and the face roots of g
    come from its ShortLex parent g' = g t: rho(g, t) = -rho(g', t) and
    rho(g, s) = rho(g', s) + 2cos(pi/m_ts) rho(g', t).  An upward edge
    (g, s) has a positive root; the first edge to show a root opens the
    next wall id.  Both faces of the edge get its wall in `faces`.  The
    edge tables are laid out from the oracle's own Wall objects, which it
    keeps as the WallSet's `walls`, so they are not spelled from the tables.
    """
    n, m, norms, nbr, last = ball.system.rank, ball.system.matrix, ball.norms, ball.nbr, ball.last
    roots = ExactReflection(ball.system)
    faces = [-1] * len(nbr)
    positive = []  # wall id -> its positive root
    wall_of_root = {}
    walls = []
    for g, t in enumerate(last):
        row = g * n
        if g:
            up = nbr[row + t] * n  # g's ShortLex parent g t, one level down
        level = norms[g]
        if level == ball.radius:
            continue
        for s in range(n):
            h = nbr[row + s]
            if norms[h] < level:
                continue
            if not g:
                root = roots.simple_roots[s]
                wid = wall_of_root.get(root)
            elif m[t][s] == 2:  # rho(g, s) = rho(g', s): no arithmetic
                wid = faces[up + s]
            else:
                rho_s = positive[faces[up + s]]
                if norms[nbr[up + s]] < level - 1:  # s goes down from g'
                    rho_s = tuple(map(neg, rho_s))
                root = roots.add_multiple[t][s](rho_s, positive[faces[up + t]])
                wid = wall_of_root.get(root)
            if wid is None:
                wid = wall_of_root[root] = len(walls)
                positive.append(root)
                walls.append(Wall(wid, [], s, determinate=level + 1 <= ball.radius - 2))
            walls[wid].edges.append((g, s))
            faces[row + s] = faces[h * n + s] = wid
    edge_start = list(accumulate((len(w.edges) for w in walls), initial=0))
    wallset = WallSet(ball, faces, edge_start, [g * n + s for w in walls for g, s in w.edges])
    wallset.walls = walls
    return wallset
