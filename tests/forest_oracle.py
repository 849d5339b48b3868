"""The class forest that coxtile.walls built before it read levels and trees
off one walk up the parent chain per class wall (walls.class_walk), kept as a
test oracle: one pass over the ball names each chamber's region in every
class (_region_pass), a check of both ends of every crossed class edge
rejects a class whose walls are not nested, and a class inside a nested
class gets its tree by contraction (_contract).  The edge check reads only
`faces` and the edge tables, so it also catches corrupted tables that the
walk, which trusts its certified classes, reads without complaint.  Used
only by tests.
"""

from dataclasses import dataclass

from coxtile.errors import StructureError
from coxtile.walls import WallSet


@dataclass
class ClassForest:
    """The region trees of some disjoint wall classes, one tree per class.

    A class cuts the ball into regions, each named by the class wall between
    it and e (-1 for e's own).  klass[w] is wall w's class number (-1 outside
    every class); wall w leads from region parent[w] into region w, and
    level[w] is its depth in that tree, which is its peeling level from e.
    failed[c] is the least wall of class c whose separators are not nested,
    or -1; a class that failed has no tree, and its parent and level entries
    mean nothing.
    """

    klass: list
    sizes: list  # class number -> number of its walls
    parent: list
    level: list
    failed: list

    def check(self, c: int) -> None:
        """Raise StructureError when class c failed the nesting check."""
        if self.failed[c] >= 0:
            raise StructureError(f"separators of wall {self.failed[c]} are not nested; class is not disjoint")


def _class_numbers(count: int, classes) -> list:
    klass = [-1] * count
    for c, wids in enumerate(classes):
        for w in wids:
            klass[w] = c
    return klass


def _region_pass(wallset: WallSet, classes) -> ClassForest:
    """The region trees of the classes from one pass over the ball.

    Visited in id order, each chamber meets its ShortLex parent first, so one
    pass names each chamber's region for every class at once: the class wall
    its geodesic from e crosses last.  A check of both ends of every crossed
    class edge then proves, by induction on |g|, that the class walls
    separating g from e are its region and that region's ancestors.  Walls go
    in id order, so a wall's parent region, e's or a wall of lower id, is
    placed first, and its level is one more than its parent's.
    """
    ball, faces, start, table = wallset.ball, wallset.faces, wallset.edge_start, wallset.edge_faces
    n, nbr, last = ball.system.rank, ball.nbr, ball.last
    klass = _class_numbers(len(wallset), classes)
    regions = [[-1] * len(ball) for _ in classes]
    for g in range(1, len(ball)):
        i = g * n + last[g]  # the face g shares with its ShortLex parent
        p = nbr[i]
        for region in regions:
            region[g] = region[p]
        c = klass[faces[i]]
        if c >= 0:
            regions[c][g] = faces[i]
    parent, failed = [-1] * len(wallset), [-1] * len(classes)
    level = [0] * (len(wallset) + 1)  # level[-1], the entry popped at the end, is e's region's
    for w, (a, b) in enumerate(zip(start, start[1:])):
        c = klass[w]
        if c < 0 or failed[c] >= 0:
            continue
        region = regions[c]
        p = region[table[a] // n]  # the region on the near side of the wall's least edge
        if p < w:
            for f in table[a:b]:
                if region[f // n] != p or region[nbr[f]] != w:
                    break
            else:
                parent[w], level[w] = p, level[p] + 1
                continue
        failed[c] = w
    level.pop()
    return ClassForest(klass, list(map(len, classes)), parent, level, failed)


def _contract(forest: ClassForest, classes) -> ClassForest:
    """Trees of classes that each lie inside a nested class of `forest`.

    The walls of a subclass S that separate g from e are those of S among
    the class walls separating g from e, which are g's region and its
    ancestors; so the S wall g's geodesic crosses last is the deepest S wall
    on that chain, and a wall's parent in S's tree is its nearest ancestor
    in S.  Ancestors have lower ids, so one pass in id order places them first.
    """
    up = forest.parent
    klass = _class_numbers(len(up), classes)
    parent, level = [-1] * len(up), [0] * (len(up) + 1)  # level[-1] as in _region_pass
    for w, c in enumerate(klass):
        if c >= 0:
            p = up[w]
            while p >= 0 and klass[p] != c:
                p = up[p]
            parent[w], level[w] = p, level[p] + 1
    level.pop()
    return ClassForest(klass, list(map(len, classes)), parent, level, [-1] * len(classes))


def peel_levels(wallset: WallSet, class_wids) -> dict:
    """Levels of one class off its own forest, or StructureError when its walls are not nested."""
    forest = _region_pass(wallset, [list(class_wids)])
    forest.check(0)
    return {w: forest.level[w] for w in sorted(class_wids)}


def class_trees(wallset: WallSet, classes) -> tuple:
    """Levels and root-attached tree parents of the classes, as walls.class_walk
    gives them, from one forest: StructureError for the first class, in the
    given order, whose walls are not nested."""
    forest = _region_pass(wallset, [list(wids) for wids in classes])
    for c in range(len(forest.sizes)):
        forest.check(c)
    roots = {}  # class number -> its least level-1 wall
    for w, p in enumerate(forest.parent):
        if p < 0:
            roots.setdefault(forest.klass[w], w)
    parents = [roots[c] if p < 0 else p for p, c in zip(forest.parent, forest.klass)]
    for root in roots.values():
        parents[root] = None
    return forest.level, parents
