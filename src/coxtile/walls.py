"""Walls of the chamber graph: enumeration, separation, classes, levels, trees.

A wall is the fixed locus of a reflection g s g^{-1}: the set of Cayley-graph
edges the reflection flips.  Each reflection of a finite dihedral coset
u<s, t> flips two opposite edges of it, and those links, followed from e
outwards, identify every wall exactly (Tits' word theorem; see
enumerate_walls) in one pass over the ball with no roots and no keys, right
at every radius for every Coxeter matrix.  The result is three flat tables.
`WallSet.faces[g * rank + s]`, laid out beside `Ball.nbr`, is the wall of the
edge {g, gs} (-1 outside the ball).  Read up g's ShortLex parent chain
(`Ball.last`), `faces` lists the walls a geodesic from e to g crosses, each
once, so separation is crossing parity.  The other two list each wall's
upward edges as faces, CSR-style: `edge_faces[edge_start[w]:edge_start[w + 1]]`
in increasing order, the first being the wall's least edge, which gives its
generator and whether it is `determinate`.  No object per wall is kept;
`WallSet.walls` spells the tables as Wall objects when something reads it.
`WallSet.face_rows` lists each interior chamber's faces with their sides
from e, once per wall set, for every tile alphabet over it.

A class of walls no two of which cross cuts the ball into regions that, with
the class walls, form a tree (Davis 2008; Sageev 1995).  The class walls
separating a chamber from e are nested and its geodesic crosses them outward,
so the innermost is the first class face up its ShortLex parent chain.  So a
wall's level is one more than that of the first class face up the chain of its
least edge's near chamber (1 when there is none), and that face is its parent
in the class's tree, where the other level-1 walls hang under the class's
least wall: one walk up the chain per class wall (class_walk), the same for a
palette's classes and for classes inside them, such as the refined colors of
wall_coloring.  A chamber's class walls are the class faces on its chain, so
their parity flips a class when the base moves there
(tiles.rebased_alternating).  The walk trusts that no two class walls cross,
so it first certifies a class of two or more walls by the rule color_walls
proves: every m_st is 2 or infinite, and no two distinct generators on its
least edges commute, which every part of a valid palette's class passes.

Every class wall's level and tree parent are exact at every radius.  Let c
be the near chamber of class wall W's least edge.  A class wall V that
separates e from W does not cross it, so W lies on V's far side and V
separates e from c too; the converse holds as well, so the class walls above
W are the class faces on c's chain.  Each chamber there has norm at most
|c| <= R - 1, so the walk reads every one, and a class's root, its least
generator's wall at e, lies in every ball of radius 1 or more (Davis 2008,
ch. 12).

A wall's reflection word is read straight off the ball: with (g, s) its
least edge, nf(g s g^-1) = nf(g) s nf(g^-1) in every Coxeter system, so ids,
which open each wall at its least edge, follow the ShortLex order of wall
words, and the least-word wall of a class is its least id
(WallSet.canonical_word).  Reports spell the words as strings
(WallSet.canonical_names): one pass over the ShortLex tree names the
chambers below the outer sphere, each name its parent's plus one letter,
and finds the id of each one's inverse, so a wall's name joins three
strings and no word tuple is built.
"""

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations

from .colorings import norm_color
from .coxeter import Ball, _coset_walks
from .errors import InconclusiveError, OutOfBallError, StructureError, ValidationError


@dataclass(slots=True)
class Wall:
    """A wall spelled from the edge tables.  determinate: its least edge lies at
    least 3 below the outer sphere (its lower chamber has norm <= radius - 3)."""

    wid: int
    edges: list  # (chamber id, generator) with the lower-norm endpoint first
    generator: int  # generator of the ShortLex-least crossed edge
    determinate: bool


class WallSet:
    """All walls crossing edges of a ball, with the wall of every face.

    Wall w's upward edges are the faces edge_faces[edge_start[w]:edge_start[w + 1]],
    each g * rank + s for the edge {g, gs} with |gs| > |g|, in increasing order,
    so the first is the wall's least edge.  `walls` spells the same tables as
    Wall objects, built on first read.

    A wall set keeps what every alphabet and orientation over it can share:
    its `face_rows`, the ClassWalk of the last classes walked (see
    class_walk), and the alphabet of tiles.build_alphabet's last full pass,
    with a private copy of the wall colors it came from and the label each
    wall's base side saw.  A later alphabet whose colors equal the kept ones
    and whose orientation negates whole colors of the kept one is the kept
    alphabet relabeled; any other makes a full pass, kept in its place.
    """

    def __init__(self, ball: Ball, faces, edge_start, edge_faces):
        self.ball = ball
        self.faces = faces  # laid out like Ball.nbr: chamber * rank + s -> wall id, or -1
        self.edge_start = edge_start  # wall id -> its first entry in edge_faces; one more at the end
        self.edge_faces = edge_faces
        self._walk = None  # the ClassWalk of the last classes walked, see class_walk
        self._alphabet = None  # what tiles.build_alphabet keeps of its last full pass, see there

    def __len__(self):
        return len(self.edge_start) - 1

    def least_faces(self) -> list:
        """Wall id -> the face g * rank + s of its least edge."""
        return list(map(self.edge_faces.__getitem__, self.edge_start[:-1]))

    @cached_property
    def walls(self) -> list:
        """Wall id -> Wall, spelled from the edge tables on first read."""
        n, start, table = self.ball.system.rank, self.edge_start, self.edge_faces
        norms, top = self.ball.norms, self.ball.radius - 3
        return [Wall(w, [divmod(f, n) for f in table[a:b]], table[a] % n, norms[table[a] // n] <= top)
                for w, (a, b) in enumerate(zip(start, start[1:]))]

    @property
    def sep(self):
        """Read-only view: chamber id -> frozenset of the walls separating it from
        e, read off `faces` along the chamber's ShortLex parent chain
        (`Ball.parent_faces`) on each lookup."""
        return _CrossingSets(self)

    def least_face(self, wid: int) -> int:
        """The face g * rank + s of wall wid's least edge, or OutOfBallError
        when wid is no wall id (-1 would read the tables from their end)."""
        if not 0 <= wid < len(self):
            raise OutOfBallError(f"no wall {wid}: the radius-{self.ball.radius} ball has "
                                 f"walls 0..{len(self) - 1}")
        return self.edge_faces[self.edge_start[wid]]

    def separates(self, wid: int, a: int, b: int) -> bool:
        """True iff the wall separates chambers a and b (crossing parity)."""
        self.least_face(wid)  # refuses an id that is no wall
        return (wid in self.sep[a]) != (wid in self.sep[b])

    def near_chamber(self, wid: int, base: int = 0) -> int:
        """Endpoint of the wall's least crossed edge on the base's side."""
        f = self.least_face(wid)
        for x in (f // self.ball.system.rank, self.ball.nbr[f]):
            if not self.separates(wid, base, x):
                return x
        raise StructureError(f"wall {wid} does not separate its own edge endpoints")

    def separating_walls(self, wid: int, base: int = 0) -> frozenset:
        """Wall ids separating the base chamber from wall wid."""
        x = self.near_chamber(wid, base)
        return frozenset(w for w in self.sep[x] ^ self.sep[base] if w != wid)

    def canonical_word(self, wid: int):
        """Normal form of the wall's reflection word: nf(g) s nf(g^-1) for the
        wall's least edge (g, s), in every Coxeter system.

        1. Every reduced word of r = g s g^-1 spells a gallery e -> r that
           crosses the wall H_r once, at some edge (c, y).  As d(c y, r) = |c|,
           the crossing is the word's middle letter, r = c y c^-1, and
           |c| = (|r| - 1) / 2 is the wall's least level (see enumerate_walls).
        2. So nf(r) = u y v with |u| = |v| = |c|, u = nf(c) and v reduced for
           c^-1.  ShortLex is closed under taking factors, so v = nf(c^-1):
           nf(r) = nf(c) y nf(c^-1) for some least edge (c, y).
        3. Every least edge gives a reduced word of r of this form, and these
           words compare as the pairs (nf(c), y) compare.  Chamber ids follow
           ShortLex order, so the least of them comes from the least edge.
        4. enumerate_walls opens each wall id at that wall's least edge, in
           face order, so wall ids follow the ShortLex order of wall words:
           the wall with the least word in any set is the one with least id.

        The id of g^-1 comes from _inverse_ids, and both normal forms are
        read up the ShortLex tree (Ball.word); no word is renormalized.
        canonical_names spells every wall's word at once.
        """
        g, s = divmod(self.least_face(wid), self.ball.system.rank)
        return self.ball.word(g) + (s,) + self.ball.word(self._inverse_ids[g])

    def canonical_names(self) -> list:
        """Wall id -> its canonical word spelled in generator names, as
        CoxeterSystem.spell spells canonical_word: name(g).s.name(g^-1) for the
        least edge (g, s), or s alone when g = e.  The names of the chambers
        below the outer sphere, where every least edge starts, come from
        Ball.names and are dropped on return."""
        inverse = self._inverse_ids
        names = self.ball.names(len(inverse))
        n, gens = self.ball.system.rank, self.ball.system.generators
        spelled = []
        for f in self.least_faces():
            g, s = divmod(f, n)
            spelled.append(f"{names[g]}.{gens[s]}.{names[inverse[g]]}" if g else gens[s])
        return spelled

    @cached_property
    def _inverse_ids(self):
        """For each chamber g below the outer sphere, the id of g^-1, in one
        pass in id order.  g^-1 = g[1:]^-1 g[0], with the id of g[1:] read off
        the ShortLex parent's (g = p x, so g[1:] = p[1:] x) and the first
        letter g[0] the parent's, so no chamber keeps its word."""
        ball = self.ball
        n, nbr, last = ball.system.rank, ball.nbr, ball.last
        size = len(last) - ball.sphere_sizes[ball.radius]
        inverse, suffix, first = [0] * size, [0] * size, [0] * size
        for g in range(1, size):  # in id order, so g's ShortLex parent p comes first
            x = last[g]
            p = nbr[g * n + x]
            if p:
                first[g] = a = first[p]
                suffix[g] = nbr[suffix[p] * n + x]
                inverse[g] = nbr[inverse[suffix[g]] * n + a]
            else:  # a generator: its own inverse, with suffix e
                first[g] = x
                inverse[g] = g
        return inverse

    @cached_property
    def face_rows(self) -> tuple:
        """(interior, rows): the ids of the chambers whose every edge lies in the
        ball, in id order, and for each of them its `rank` faces, row after row
        in one array('q'), as 2 * wall + far.  far is 1 when the wall
        separates the chamber from e, which is a descent: the wall of the edge
        {g, gs} separates e from g exactly when |gs| < |g| (Bjorner & Brenti,
        Combinatorics of Coxeter Groups, 1.4).  No orientation enters, so every
        alphabet over the wall set reads these rows (tiles.build_alphabet)."""
        ball, faces = self.ball, self.faces
        n, norms, nbr = ball.system.rank, ball.norms, ball.nbr
        interior, rows = array("q"), array("q")
        for g, level in enumerate(norms):
            a = g * n
            row = faces[a:a + n]
            if -1 not in row:  # every edge of g lies in the ball
                interior.append(g)
                rows.extend([2 * w + (norms[x] < level) for w, x in zip(row, nbr[a:a + n])])
        return interior, rows


class _CrossingSets:
    def __init__(self, wallset: WallSet):
        self.wallset = wallset

    def __getitem__(self, cid: int) -> frozenset:
        ws = self.wallset
        return frozenset(map(ws.faces.__getitem__, ws.ball.parent_faces(cid)))


def enumerate_walls(ball: Ball) -> WallSet:
    """Identify every wall crossing an edge of the ball, level by level,
    from walks around dihedral cosets in `Ball.nbr`: no roots, no keys.

    Let (g, s) be an upward edge (|gs| > |g|) and t != s a descent of g with
    m = m_st finite.  Then g lies k >= 1 steps above the bottom u of the
    coset u<s, t>, found by walking down along t, s, t, ... while the norm
    drops (Bjorner and Brenti 2.4).  The coset is a 2m-gon whose reflections
    each flip two opposite edges, so (g, s) shares its wall with the edge
    j = m - 1 - k steps up the other side, read off by walking up from u.
    Both walks read the letter table of coxeter._coset_walks: with letters
    = (t, s) * m, the way down is letters[:k], the way up letters[k:m - 1],
    and the opposite edge is crossed by letters[m - 1].
    Chambers are visited in id (ShortLex) order, so every lower edge (j < k)
    already has its wall.  Edges tied at one level (j = k, m odd) form
    classes: a class takes the wall of any member's lower opposite, and a
    class with none opens the next wall id at its least edge, which the
    visit reaches first.  A class is explored only until a member shows a
    wall, as a lower opposite or as a tie placed already; members left out
    find that wall the same way when the visit reaches them.  Both faces of
    an edge get its wall in `faces`, and each upward edge is counted for its
    wall; one stable sort by wall then lays the edge tables out.

    Why this names each wall exactly once.  Opposite edges of a residue lie
    on one wall, so no two walls merge.  Conversely let P = (g, x) be an
    upward edge at level l = |g| on the wall H of r = g x g^-1.  The word
    g.x.g^-1 spells a gallery e -> r of length 2l + 1 that crosses H once, at
    P.  A gallery of length L from e to r that crosses H once, at (c, x'),
    has c on e's side and d(c x', r) = |(c x')^-1 c x' c^-1| = |c|, so
    L >= 2|c| + 1: the crossing edge has level at most (L - 1) / 2.  A braid
    move keeps the number of times the gallery crosses each wall, and when it
    works in the residue where the gallery crosses H it moves the crossing to
    that residue's opposite edge.  If H has an edge below level l, then
    |r| < 2l + 1 and the word is not reduced, so by Tits' word theorem (Tits
    1969; Bjorner and Brenti, Thm 3.3.1) braid moves reach a word with a
    factor ss.  Along the way every crossing of H has level at most l, and
    deleting ss (a wall crossed twice, so not H) leaves a gallery of length
    2l - 1 that crosses H at the same edge, now of level at most l - 1.  The
    crossing edges thus lead from P through ties at level l to the first one
    with a lower opposite.  If instead l is H's least level, the word is
    reduced, and Tits' theorem joins it to the word of any other least edge
    of H by braid moves that keep the crossing at level l: the least edges of
    a wall are one tie class.  So, by induction on the level, a class with a
    lower opposite lies on that opposite's wall, and a class without one
    holds exactly the least edges of a new wall: every edge gets the id of
    its wall, and every wall gets one id.
    """
    n, norms, nbr, radius = ball.system.rank, ball.norms, ball.nbr, ball.radius
    walks = _coset_walks(ball.system)
    faces = [-1] * len(nbr)
    count = []  # wall id -> number of its upward edges
    ups = []  # the upward edges, as faces, in increasing order

    def opposite_wall(g, s, level, ties):
        """Wall of an opposite of the upward edge (g, s) that lies lower, or
        at its level and has a wall already; else -1, with the faces of the
        opposites tied at its level appended to `ties`."""
        row = g * n
        for t, m, letters in walks[s]:
            x = nbr[row + t]
            if norms[x] > level:  # g is the bottom of g<s, t>: its opposite lies higher
                continue
            if m == 2:  # the opposite edge is (g t, s), one level down
                return faces[x * n + s]
            k = 1
            while k < m - 1:  # down along letters[k] = s, t, s, ... to the coset's bottom
                y = nbr[x * n + letters[k]]
                if norms[y] > level - k:
                    break
                x, k = y, k + 1
            j = m - 1 - k
            if j > k:
                continue
            for a in letters[k:m - 1]:  # and j steps up the other side
                x = nbr[x * n + a]
            i = x * n + letters[m - 1]
            wid = faces[i]
            if wid >= 0:  # always so when j < k: lower edges are done
                return wid
            ties.append(i)
        return -1

    for g, level in enumerate(norms):
        if level == radius:
            break
        row = g * n
        for s in range(n):
            i = row + s
            if norms[nbr[i]] < level:
                continue
            wid = faces[i]
            if wid < 0:
                ties = []
                wid = opposite_wall(g, s, level, ties)
                tied = [i]
                while wid < 0 and ties:  # explore the tie class of (g, s)
                    i2 = ties.pop()
                    if i2 in tied:
                        continue
                    tied.append(i2)
                    wid = opposite_wall(*divmod(i2, n), level, ties)
                if wid < 0:  # no lower opposite: (g, s) is the class's least edge
                    wid = len(count)
                    count.append(0)
                for i2 in tied:
                    faces[i2] = faces[nbr[i2] * n + i2 % n] = wid
            count[wid] += 1
            ups.append(i)
    # group the upward edges by wall; the sort is stable, so each wall's stay in order
    edge_faces = array("q", sorted(ups, key=faces.__getitem__))
    return WallSet(ball, faces, array("q", accumulate(count, initial=0)), edge_faces)


@dataclass
class WallComponents:
    """Components of the ball graph with one wall's crossed edges deleted."""

    wid: int
    labels: list  # chamber id -> component number
    count: int
    radius: int

    def separates(self, a: int, b: int) -> bool:
        """True iff chambers a and b fall into different components.

        Raises InconclusiveError when the deletion shatters the ball into
        more than two pieces and the verdict would rest on a boundary shard.
        """
        separated = self.labels[a] != self.labels[b]
        if separated and self.count > 2:
            raise InconclusiveError(
                f"deleting wall {self.wid} split the radius-{self.radius} ball into {self.count} "
                f"components, not 2, so the verdict would rest on a boundary shard; raise the "
                f"radius above {self.radius}"
            )
        return separated


def wall_components(wallset: WallSet, wid: int) -> WallComponents:
    """Label the components of the ball graph minus the wall's crossed edges;
    independent of the crossing-parity sets."""
    ball = wallset.ball
    n, nbr = ball.system.rank, ball.nbr
    lo, hi = wallset.edge_start[wid:wid + 2]
    cut = {i for f in wallset.edge_faces[lo:hi] for i in (f, nbr[f] * n + f % n)}
    comp = [-1] * len(ball)
    ncomp = 0
    for start in range(len(ball)):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = ncomp
        while stack:
            x = stack.pop()
            for i in range(x * n, x * n + n):
                y = nbr[i]
                if y >= 0 and comp[y] == -1 and i not in cut:
                    comp[y] = ncomp
                    stack.append(y)
        ncomp += 1
    return WallComponents(wid, comp, ncomp, ball.radius)


def separates_by_components(wallset: WallSet, wid: int, a: int, b: int):
    """Independent separation oracle: delete the wall's crossed edges and
    test whether a and b fall into different components of the ball graph
    (see WallComponents.separates)."""
    return wall_components(wallset, wid).separates(a, b)


# -- color classes -----------------------------------------------------------


@dataclass
class WallClasses:
    """Palette-induced wall classes, and the generator pairs whose walls of
    one color cross somewhere in the tiling (color_walls).  The classes of a
    disjoint palette get their levels and trees from one walk (class_walk)."""

    by_color: dict
    color: list  # wall id -> color
    violations: list  # (s, t, m_st) with s < t, in generator order

    @property
    def disjoint(self) -> bool:
        return not self.violations


def color_walls(wallset: WallSet, palette: dict) -> WallClasses:
    """Color each wall by the generator on its least edge, and read off the
    Coxeter matrix the pairs s < t whose walls of one color cross: those with
    a finite m_st >= 3, and those with m_st = 2 and one color.  Each has two
    such walls crossing in its residue at e, and two facts show that when
    there are none, no two walls of one color cross anywhere in the tiling.

    1. A finite m_st >= 3 rules out every generator palette.  The residue
       <s, t> at e holds the m_st reflections of the finite dihedral group
       W_st, whose walls all pass through the residue's centre and so cross
       pairwise.  A reduced word of an element of W_st uses only s and t
       (Bjorner and Brenti, Combinatorics of Coxeter Groups, 2.4), so each of
       these walls has its least edge in the residue and carries s's color or
       t's: of three or more walls, two share a color.
    2. When every m_st is 2 or infinite, a palette is disjoint exactly when
       commuting generators get distinct colors.  Two walls cross exactly
       when their reflections generate a finite group (Niblo and Reeves
       2003), which lies in a conjugate x W_T x^-1 of a spherical parabolic
       subgroup (Tits; Davis 2008, ch. 12).  Here T is a set of pairwise
       commuting generators and W_T = (Z/2)^T, so the crossing walls are
       x a x^-1 and x b x^-1 for distinct commuting a and b.  The least edge
       (g, s) of the first has g s g^-1 = x a x^-1, so s is conjugate to a,
       and with no odd m_st a generator is conjugate only to itself (Bjorner
       and Brenti, Ex. 1.16): s = a, and the two walls carry a's color and
       b's.  Conversely the walls of two commuting generators cross at e.
    """
    system = wallset.ball.system
    n = system.rank
    missing = [s for s in range(n) if s not in palette]
    if missing:
        raise ValidationError(f"palette misses generators {missing}")
    color = [palette[f % n] for f in wallset.least_faces()]  # wall id -> color
    by_color: dict = {}
    for wid, c in enumerate(color):
        by_color.setdefault(c, []).append(wid)
    return WallClasses(by_color, color, _crossing_pairs(system, lambda s, t: palette[s] == palette[t]))


def _crossing_pairs(system, together) -> list:
    """(s, t, m_st) for each pair s < t, in generator order, whose walls cross
    somewhere in the tiling when `together` puts them in one class: a finite
    m_st >= 3, or m_st = 2 and together(s, t) (see color_walls)."""
    return [(s, t, m) for s, t in combinations(range(system.rank), 2)
            if (m := system.m(s, t)) >= 3 or m == 2 and together(s, t)]  # m = 0 is infinity


def alternating_palette(system) -> dict:
    """Two-color a/b palette by generator parity (even cycles only)."""
    if system.rank % 2 != 0:
        raise ValidationError("alternating palette needs an even number of generators")
    return {s: ("a" if s % 2 == 0 else "b") for s in range(system.rank)}


# -- levels ------------------------------------------------------------------


@dataclass
class ClassWalk:
    """Levels and trees of some wall classes, from one walk up the parent
    chain per class wall (class_walk).

    klass[w] is wall w's class number (-1 outside every class), level[w] its
    peeling level from e, parent[w] its parent in its class's tree (None at
    the root, the class's least wall, under which the other level-1 walls
    hang) and depth[w] its depth there.  Walls outside every class get None
    and zeros.
    """

    klass: list
    sizes: list  # class number -> number of its walls
    level: list
    parent: list
    depth: list

    def holds(self, wids) -> bool:
        """True when the wall id list wids is one of the walk's classes, matched by home and size."""
        homes = set(map(self.klass.__getitem__, wids))
        return len(homes) == 1 and (c := homes.pop()) >= 0 and self.sizes[c] == len(wids)


def class_walk(wallset: WallSet, classes) -> ClassWalk:
    """The walk of `classes` (wall id lists), in which each class's walls
    share one class number (see the module docstring).  A wall's tree parent
    has a lower id, as its least edge lies below, so a class walked in id
    order meets each parent first, and its least wall, of level 1, is its
    root; the chamber a climb starts from keeps its answer for the later
    climbs of its class.  A class of two or more walls is first certified
    from the Coxeter matrix, or refused with StructureError at the first pair
    _crossing_pairs finds for its generators.  The WallSet keeps its last
    walk, which serves as it is when it holds each class, as for the rebases
    and single-class peels of one refined resolution.
    """
    classes = [list(wids) for wids in classes]
    kept = wallset._walk
    if kept is not None and all(map(kept.holds, classes)):
        return kept
    system, faces, count = wallset.ball.system, wallset.faces, len(wallset)
    n, nbr, last = system.rank, wallset.ball.nbr, wallset.ball.last
    klass, table, first = [-1] * count, wallset.edge_faces, wallset.edge_start
    seen, found = [-1] * len(last), [-1] * len(last)  # chamber -> the class of its climb, and its answer
    level, parent, depth = [0] * (count + 1), [None] * count, [0] * count  # level[-1], popped below, is e's
    for c, wids in enumerate(classes):
        generators = {table[first[w]] % n for w in wids}
        crossing = len(wids) > 1 and _crossing_pairs(system, lambda s, t: s in generators and t in generators)
        if crossing:
            s, t, m = crossing[0]
            raise StructureError(f"class of {len(wids)} walls is not certified disjoint: generators "
                                 f"{system.generators[s]!r} and {system.generators[t]!r} have order {m}")
        for w in wids:
            klass[w] = c
        root = None
        for w in sorted(wids):
            g = start = table[first[w]] // n
            while g:
                if seen[g] == c:
                    p = found[g]
                    break
                i = g * n + last[g]
                p = faces[i]
                if klass[p] == c:
                    break
                g = nbr[i]
            else:
                p = -1
            seen[start], found[start] = c, p
            level[w] = level[p] + 1
            if root is None:
                root = w
            else:
                parent[w] = root if p < 0 else p
                depth[w] = depth[parent[w]] + 1
    level.pop()
    wallset._walk = ClassWalk(klass, list(map(len, classes)), level, parent, depth)
    return wallset._walk


def peel_levels(wallset: WallSet, class_wids) -> dict:
    """Iterated peeling of a pairwise-disjoint wall class away from e: round
    k removes the walls no remaining class wall separates from e and labels
    them level k, read off the class's walk (class_walk).  Raises
    StructureError for a class the Coxeter matrix cannot certify disjoint."""
    level = class_walk(wallset, [class_wids]).level
    return {w: level[w] for w in sorted(class_wids)}


# -- wall trees --------------------------------------------------------------


@dataclass
class WallTree:
    """Rooted tree on the walls of one disjoint class, read off its peeling: a
    wall hangs under its innermost in-class separator, one level down, and the
    level-1 walls under the root, the level-1 wall of least id and so of
    ShortLex-least word (WallSet.canonical_word), so a wall's depth is its
    level, less one when the root separates it from e."""

    vertices: list
    edges: list
    root: int
    parent: dict
    depth: dict
    levels: dict  # wall id -> peeling level (peel_levels)


def build_wall_tree(wallset: WallSet, class_wids) -> WallTree:
    """The WallTree of one class, read off its walk (class_walk)."""
    walk = class_walk(wallset, [class_wids])
    wids = sorted(class_wids)
    if not wids:
        raise StructureError("class has no level-1 wall")
    parent = {w: walk.parent[w] for w in wids[1:]}
    edges = sorted((p, w) for w, p in parent.items())
    depth, levels = {w: walk.depth[w] for w in wids}, {w: walk.level[w] for w in wids}
    return WallTree(wids, edges, wids[0], parent, depth, levels)


# -- the wall coloring built from per-class trees ------------------------------


def wall_coloring(wallset: WallSet, classes: WallClasses) -> list:
    """Color every wall by (class color, depth color in its WallTree, the depth
    read off one walk of the palette's classes, class_walk), as a list
    indexed by wall id.

    Per class the nine depth colors are `norm_color(d)` = (t(d), d mod 3)
    with t the ternary square-free sequence, so distinct classes never share
    a color and each class has nine colors.  The walls of one class at one
    depth share one color tuple.
    """
    depth = class_walk(wallset, classes.by_color.values()).depth
    by_depth = [norm_color(d) for d in range(max(depth, default=0) + 1)]
    shades = {color: [(color, c) for c in by_depth] for color in classes.by_color}
    return [shades[color][d] for color, d in zip(classes.color, depth)]
