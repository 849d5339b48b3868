"""The dual-vector-keyed ball enumeration that coxtile.coxeter replaced,
kept as a test oracle.

A chamber of the Tits cone is keyed by its dual vector g^-1 f0, f0 the
functional with f0(alpha_t) = 1 for every simple root, in the exact ring
arithmetic of root_oracle.ExactReflection; W acts simply transitively on the
chambers, so equal keys are equal elements.  The breadth-first search hashes one key
per product and records descents from below, keeping two spheres of keys.
It knows nothing of dihedral cosets, so it checks the key-free enumeration
of `coxtile.coxeter.enumerate_ball` table for table.  Used only by tests.
"""

from root_oracle import ExactReflection

from coxtile.errors import SizeLimitError, StructureError


class DualVectors:
    """Dual vectors f as flat tuples of n*d integers, f(alpha_t) in block t
    (the coordinates of ExactReflection), and the action of a generator."""

    def __init__(self, system):
        self.rep = ExactReflection(system)
        self.rank = n = system.rank
        self.d = d = len(self.rep.simple_roots[0]) // n
        self.chamber = tuple(int(k % d == 0) for k in range(n * d))
        self._zero = (0,) * (n * d)
        self._moved = [[t for t in range(n) if system.m(s, t) != 2] for s in range(n)]

    def step(self, f, s):
        """s.f: coordinate t gains 2cos(pi/m_st) f(alpha_s), and m_ss = 1
        negates f(alpha_s) itself."""
        d, zero = self.d, self._zero
        fs = f[s * d : s * d + d]
        for t in self._moved[s]:
            f = self.rep.add_multiple[t][s](f, zero[: t * d] + fs + zero[t * d + d :])
        return f


def oracle_ball(system, radius: int, cap: int = 200_000):
    """(norms, nbr, last, sphere_sizes) of the ball, as Ball stores them,
    from a search keyed by dual vectors."""
    dual = DualVectors(system)
    n = system.rank
    seen = {dual.chamber: 0}
    blank = [-1] * n
    norms, nbr, last = [0], blank[:], [-1]
    sphere_sizes = [1]
    frontier, keys = [0], [dual.chamber]
    for level in range(1, radius + 1):
        nxt, nxt_keys = [], []
        for eid, key in zip(frontier, keys):
            row = eid * n
            for s in range(n):
                if nbr[row + s] >= 0:
                    continue
                prod = dual.step(key, s)
                jid = seen.get(prod)
                if jid is None:
                    if len(norms) >= cap:
                        raise SizeLimitError(f"ball cap {cap} exceeded", partial_count=len(norms))
                    jid = seen[prod] = len(norms)
                    last.append(s)
                    norms.append(level)
                    nbr += blank
                    nxt.append(jid)
                    nxt_keys.append(prod)
                elif norms[jid] != level:
                    raise StructureError("norm parity violated; element identification failed")
                nbr[row + s] = jid
                nbr[jid * n + s] = eid
        seen = dict(zip(nxt_keys, nxt))  # later spheres never meet the finished one again
        sphere_sizes.append(len(nxt))
        frontier, keys = nxt, nxt_keys
        if not frontier:
            break
    sphere_sizes += [0] * (radius + 1 - len(sphere_sizes))
    return norms, nbr, last, sphere_sizes
