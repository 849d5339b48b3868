"""The round-based peeling and the wall tree that coxtile.walls replaced,
kept verbatim as test oracles.  Peeling rescans every active wall each round
and removes those no remaining class wall separates from the base chamber;
both ask WallSet.separating_walls for every wall's separators.  Used only by
tests.
"""

from coxtile.errors import StructureError
from coxtile.walls import WallSet, WallTree


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
    # the ShortLex-least word, chosen by the words themselves, not by wall id
    root = min(level_one, key=lambda w: (len(wallset.canonical_word(w)), wallset.canonical_word(w)))
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
    return WallTree(sorted(class_wids), edges, root, parent, depth, peel_levels(wallset, class_wids, base))
