"""Walls of the chamber graph: enumeration, separation, classes, levels, trees.

A wall is the fixed locus of a reflection g s g^{-1}; combinatorially it is
the set of Cayley-graph edges the reflection flips.  The edge {g, gs} crosses
the wall of the root g.alpha_s, and two edges cross the same wall exactly
when their roots agree up to sign.  Walls are therefore identified by their
roots, computed exactly (coxeter.ExactReflection) in one pass over the ball,
so the wall of every edge is right at every radius, for every Coxeter matrix.

Separation is decided by crossing parity along ShortLex-prefix geodesics;
a geodesic crosses each wall at most once, so the per-chamber sets of
crossed walls are exact as well.  Levels and trees of a wall class depend
on walls beyond the ball too, which is why a wall whose edges all lie near
the boundary is flagged not `determinate`.
"""

from dataclasses import dataclass

from .coxeter import Ball, ExactReflection
from .errors import InconclusiveError, OutOfBallError, StructureError, ValidationError


@dataclass
class Wall:
    wid: int
    edges: list  # (chamber id, generator) with the lower-norm endpoint first
    generator: int  # generator of the ShortLex-least crossed edge
    determinate: bool


class WallSet:
    """All walls crossing edges of a ball, plus per-chamber crossing sets."""

    def __init__(self, ball: Ball, walls, edge_wall, sep):
        self.ball = ball
        self.walls = walls
        self.edge_wall = edge_wall  # (lower-norm chamber id, generator) -> wall id
        self.sep = sep  # chamber id -> frozenset of wall ids separating it from e
        self._canonical_cache = {}

    def __len__(self):
        return len(self.walls)

    def edge_key(self, cid: int, s: int):
        jid = self.ball.edges[(cid, s)]
        return (cid, s) if self.ball.norms[cid] < self.ball.norms[jid] else (jid, s)

    def wall_of_face(self, cid: int, s: int) -> int:
        """Wall through the face of chamber cid crossed by generator s."""
        if (cid, s) not in self.ball.edges:
            raise InconclusiveError(f"chamber {cid} has no {s}-edge in the ball")
        return self.edge_wall[self.edge_key(cid, s)]

    def separates(self, wid: int, a: int, b: int) -> bool:
        """True iff the wall separates chambers a and b (crossing parity)."""
        return (wid in self.sep[a]) != (wid in self.sep[b])

    def near_chamber(self, wid: int, base: int = 0) -> int:
        """Endpoint of the wall's least crossed edge on the base's side."""
        cid, s = self.walls[wid].edges[0]
        other = self.ball.edges[(cid, s)]
        for x in (cid, other):
            if (wid in self.sep[x]) == (wid in self.sep[base]):
                return x
        raise StructureError(f"wall {wid} does not separate its own edge endpoints")

    def separating_walls(self, wid: int, base: int = 0) -> frozenset:
        """Wall ids separating the base chamber from wall wid."""
        x = self.near_chamber(wid, base)
        return frozenset(w for w in self.sep[x] ^ self.sep[base] if w != wid)

    def canonical_word(self, wid: int):
        """Normal form of the wall's reflection word."""
        if wid not in self._canonical_cache:
            # the ball holds g s in normal form; only g^-1 is left to multiply in
            cid, s = self.walls[wid].edges[0]
            gs = self.ball.words[self.ball.edges[(cid, s)]]
            self._canonical_cache[wid] = self.ball.mul(gs, tuple(reversed(self.ball.words[cid])))
        return self._canonical_cache[wid]

    def find_wall(self, reflection_word) -> int:
        """Wall id of a reflection given by any word for it."""
        nf = self.ball.system.normal_form(reflection_word)
        if not hasattr(self, "_word_index"):
            self._word_index = {self.canonical_word(w.wid): w.wid for w in self.walls}
        if nf not in self._word_index:
            raise OutOfBallError(f"no enumerated wall with reflection {nf}")
        return self._word_index[nf]


def enumerate_walls(ball: Ball) -> WallSet:
    """Identify every wall crossing an edge of the ball by its root.

    Chambers are visited in id (ShortLex) order, and the face roots of g
    come from its ShortLex parent g' = g t: rho(g, t) = -rho(g', t) and
    rho(g, s) = rho(g', s) + 2cos(pi/m_ts) rho(g', t).  An upward edge
    (g, s) has a positive root; the first edge to show a root opens the
    next wall id.
    """
    n, m, norms = ball.system.rank, ball.system.matrix, ball.norms
    roots = ExactReflection(ball.system)
    faces = [-1] * (len(ball) * n)  # chamber * n + s -> wall id of that face
    signed = []  # wall id -> (its positive root, the negative)
    wall_of_root = {}
    walls = []
    edge_wall = {}
    sep = [frozenset()] * len(ball)
    for g, word in enumerate(ball.words):
        if g:
            t = word[-1]
            parent = ball.edges[(g, t)]
            sep[g] = sep[parent] ^ {faces[parent * n + t]}
        if norms[g] == ball.radius:
            continue
        for s in range(n):
            h = ball.edges[(g, s)]
            if norms[h] < norms[g]:
                continue
            if not g:
                root = roots.simple_roots[s]
                wid = wall_of_root.get(root)
            elif m[t][s] == 2:  # rho(g, s) = rho(g', s): no arithmetic
                wid = faces[parent * n + s]
            else:
                down = norms[ball.edges[(parent, s)]] < norms[parent]
                rho_s = signed[faces[parent * n + s]][down]
                root = roots.add_multiple[t][s](rho_s, signed[faces[parent * n + t]][0])
                wid = wall_of_root.get(root)
            if wid is None:
                wid = wall_of_root[root] = len(walls)
                signed.append((root, tuple(-x for x in root)))
                walls.append(Wall(wid, [], s, determinate=norms[g] + 1 <= ball.radius - 2))
            walls[wid].edges.append((g, s))
            edge_wall[(g, s)] = wid
            faces[g * n + s] = faces[h * n + s] = wid
    return WallSet(ball, walls, edge_wall, sep)


@dataclass
class WallComponents:
    """Components of the ball graph with one wall's crossed edges deleted."""

    wid: int
    labels: list  # chamber id -> component number
    count: int

    def separates(self, a: int, b: int) -> bool:
        """True iff chambers a and b fall into different components.

        Raises InconclusiveError when the deletion shatters the ball into
        more than two pieces and the verdict would rest on a boundary shard.
        """
        separated = self.labels[a] != self.labels[b]
        if separated and self.count > 2:
            raise InconclusiveError(
                f"deleting wall {self.wid} produced {self.count} components; enlarge the radius"
            )
        return separated


def wall_components(wallset: WallSet, wid: int) -> WallComponents:
    """Label the components of the ball graph minus the wall's crossed edges;
    independent of the crossing-parity sets."""
    ball = wallset.ball
    cut = set()
    for cid, s in wallset.walls[wid].edges:
        jid = ball.edges[(cid, s)]
        cut.add((cid, s))
        cut.add((jid, s))
    comp = [-1] * len(ball)
    ncomp = 0
    for start in range(len(ball)):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = ncomp
        while stack:
            x = stack.pop()
            for s in range(ball.system.rank):
                if (x, s) in cut or (x, s) not in ball.edges:
                    continue
                y = ball.edges[(x, s)]
                if comp[y] == -1:
                    comp[y] = ncomp
                    stack.append(y)
        ncomp += 1
    return WallComponents(wid, comp, ncomp)


def separates_by_components(wallset: WallSet, wid: int, a: int, b: int):
    """Independent separation oracle: delete the wall's crossed edges and
    test whether a and b fall into different components of the ball graph
    (see WallComponents.separates)."""
    return wall_components(wallset, wid).separates(a, b)


# -- color classes -----------------------------------------------------------


@dataclass
class WallClasses:
    """Palette-induced wall classes with an empirical disjointness check.

    Two walls "meet" when some chamber has both on adjacent faces whose
    generators span a finite dihedral (m != 0); the certificate scans every
    enumerated chamber corner.
    """

    by_color: dict
    color_of: dict  # wall id -> color
    violations: list  # (chamber id, wall id, wall id)
    radius: int

    @property
    def disjoint(self) -> bool:
        return not self.violations


def color_walls(wallset: WallSet, palette: dict) -> WallClasses:
    """Assign each wall the palette color of its generator and certify
    that same-colored walls never meet at a chamber corner."""
    ball = wallset.ball
    system = ball.system
    missing = [s for s in range(system.rank) if s not in palette]
    if missing:
        raise ValidationError(f"palette misses generators {missing}")
    color_of = {w.wid: palette[w.generator] for w in wallset.walls}
    by_color: dict = {}
    for w in wallset.walls:
        by_color.setdefault(color_of[w.wid], []).append(w.wid)
    violations = []
    pairs = [
        (s, t)
        for s in range(system.rank)
        for t in range(s + 1, system.rank)
        if system.m(s, t) != 0
    ]
    for cid in range(len(ball)):
        for s, t in pairs:
            if (cid, s) not in ball.edges or (cid, t) not in ball.edges:
                continue
            w1 = wallset.wall_of_face(cid, s)
            w2 = wallset.wall_of_face(cid, t)
            if w1 != w2 and color_of[w1] == color_of[w2]:
                violations.append((cid, w1, w2))
    return WallClasses(by_color, color_of, violations, ball.radius)


def alternating_palette(system) -> dict:
    """Two-color a/b palette by generator parity (even cycles only)."""
    if system.rank % 2 != 0:
        raise ValidationError("alternating palette needs an even number of generators")
    return {s: ("a" if s % 2 == 0 else "b") for s in range(system.rank)}


# -- levels ------------------------------------------------------------------


def peel_levels(wallset: WallSet, class_wids, base: int = 0) -> dict:
    """Iterated peeling of a pairwise-disjoint wall class away from `base`.

    Round k removes the walls not separated from the base chamber by any
    remaining wall of the class and labels them level k.
    """
    class_set = frozenset(class_wids)
    blockers = {
        w: wallset.separating_walls(w, base) & class_set for w in class_wids
    }
    levels = {}
    active = set(class_wids)
    level = 1
    while active:
        this_round = [w for w in active if not (blockers[w] & active)]
        if not this_round:
            raise StructureError(
                "peeling stalled: class walls mutually separated (intersecting class?)"
            )
        for w in this_round:
            levels[w] = level
        active.difference_update(this_round)
        level += 1
    return levels


# -- wall trees --------------------------------------------------------------


@dataclass
class WallTree:
    """Rooted tree on the walls of one disjoint class.

    Each wall of level >= 2 hangs under the innermost same-class wall
    separating it from the base chamber; the remaining level-1 walls hang
    under the root, the level-1 wall with ShortLex-least reflection word.
    """

    vertices: list
    edges: list
    root: int
    parent: dict
    depth: dict


def build_wall_tree(wallset: WallSet, class_wids, base: int = 0) -> WallTree:
    class_set = frozenset(class_wids)
    chains = {w: wallset.separating_walls(w, base) & class_set for w in class_wids}
    # nesting sanity: separators of one wall must be totally ordered
    for w, chain in chains.items():
        ordered = sorted(chain, key=lambda x: len(chains[x]))
        for a, b in zip(ordered, ordered[1:]):
            if not (chains[a] | {a}) <= chains[b]:
                raise StructureError(
                    f"separators of wall {w} are not nested; class is not disjoint"
                )
    level_one = [w for w in class_wids if not chains[w]]
    if not level_one:
        raise StructureError("class has no level-1 wall")
    root = min(level_one, key=lambda w: _shortlex_key(wallset.canonical_word(w)))
    parent = {}
    for w in class_wids:
        if w == root:
            continue
        if chains[w]:
            parent[w] = max(chains[w], key=lambda x: len(chains[x]))
        else:
            parent[w] = root
    depth = {root: 0}
    pending = [w for w in class_wids if w != root]
    while pending:
        rest = []
        for w in pending:
            if parent[w] in depth:
                depth[w] = depth[parent[w]] + 1
            else:
                rest.append(w)
        if len(rest) == len(pending):
            raise StructureError("wall tree disconnected: parent outside the class")
        pending = rest
    edges = sorted((parent[w], w) for w in parent)
    return WallTree(sorted(class_wids), edges, root, parent, depth)


def _shortlex_key(word):
    return (len(word), word)


# -- the wall coloring built from per-class trees ------------------------------


def wall_coloring(wallset: WallSet, classes: WallClasses, base: int = 0):
    """Color every wall by (class color, tree-depth color of its class tree).

    Per class the nine depth colors are (t(d), d mod 3) with t the ternary
    square-free sequence, so distinct classes never share a color and the
    total palette has nine colors per class.
    """
    from .sequences import square_free_prefix

    trees = {}
    color_of = {}
    max_depth = 0
    for color, wids in sorted(classes.by_color.items(), key=lambda kv: str(kv[0])):
        tree = build_wall_tree(wallset, wids, base)
        trees[color] = tree
        max_depth = max(max_depth, max(tree.depth.values(), default=0))
    tern = square_free_prefix(max_depth + 1)
    for color, tree in trees.items():
        for w in tree.vertices:
            d = tree.depth[w]
            color_of[w] = (color, (tern[d], d % 3))
    palette = [
        (color, (i, j))
        for color in sorted(trees, key=str)
        for i in range(3)
        for j in range(3)
    ]
    return color_of, trees, palette
