"""The braid-move word reducer that coxtile.coxeter replaced, kept as test
oracles.  Tits' solution to the word problem: cancel within the braid
closure until reduced, then take the lexicographically least reduced word.
It knows nothing of the reflection representation, so it checks the descent
engine, the right-angled rewriting and the exact ball keys independently.
Its cost grows exponentially with word length.  Used only by tests.
"""

from coxtile.coxeter import CoxeterSystem
from coxtile.errors import SizeLimitError


def _alt_word(i: int, j: int, length: int) -> tuple[int, ...]:
    return tuple(i if k % 2 == 0 else j for k in range(length))


def braid_closure(system: CoxeterSystem, word, limit: int = 200_000) -> set:
    """All words reachable from `word` by braid moves (no cancellations)."""
    word = tuple(word)
    seen = {word}
    frontier = [word]
    matrix = system.matrix
    while frontier:
        nxt = []
        for w in frontier:
            L = len(w)
            for p in range(L - 1):
                i, j = w[p], w[p + 1]
                if i == j:
                    continue
                m = matrix[i][j]
                if m < 2 or p + m > L:
                    continue
                if w[p : p + m] == _alt_word(i, j, m):
                    w2 = w[:p] + _alt_word(j, i, m) + w[p + m :]
                    if w2 not in seen:
                        seen.add(w2)
                        nxt.append(w2)
            if len(seen) > limit:
                raise SizeLimitError("braid closure too large", partial_count=len(seen))
        frontier = nxt
    return seen


def _braid_normal_form(system: CoxeterSystem, word) -> tuple[int, ...]:
    """Tits' solution to the word problem: cancel within the braid closure
    until reduced, then take the lexicographically least reduced word."""
    w = tuple(word)
    while True:
        done = True
        for v in braid_closure(system, w):
            for p in range(len(v) - 1):
                if v[p] == v[p + 1]:
                    w = v[:p] + v[p + 2 :]
                    done = False
                    break
            if not done:
                break
        if done:
            break
    if not w:
        return ()
    return min(braid_closure(system, w))


def oracle_canonical(system: CoxeterSystem, word) -> tuple[int, ...]:
    """Word-level canonical form via braid closure only (no rewriting
    shortcuts, no reflection representation); cross-checks the fast paths."""
    return _braid_normal_form(system, word)


def naive_ball(system: CoxeterSystem, radius: int, max_elements: int = 10_000):
    """Raw-word BFS deduplicated by the braid-closure canonical form.

    Returns (sphere_sizes, canonical word set).  Independent of both the
    right-angled rewriting backend and the reflection representation.
    """
    seen = {(): ()}
    frontier = [()]
    sphere_sizes = [1]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for s in range(system.rank):
                c = oracle_canonical(system, w + (s,))
                if c not in seen:
                    seen[c] = c
                    nxt.append(c)
                    if len(seen) > max_elements:
                        raise SizeLimitError("naive ball too large", partial_count=len(seen))
        sphere_sizes.append(len(nxt))
        frontier = nxt
        if not frontier:
            break
    while len(sphere_sizes) < radius + 1:
        sphere_sizes.append(0)
    return sphere_sizes, set(seen)
