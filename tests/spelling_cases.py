"""Balls on which names read off the ShortLex tree are checked against
`CoxeterSystem.spell`: right-angled polygons, triangle groups, rank 4 with
orders 5 to 8, a finite dihedral group past its diameter, the infinite
dihedral group, and seeded random systems of rank 2 to 4 whose generators
have names of one or two letters.
"""

import random

from coxtile.coxeter import CoxeterSystem, enumerate_ball

HEXAGON = CoxeterSystem.right_angled_polygon(6)


def triangle(a, b, c):
    """Rank-3 system with m(0,1) = a, m(0,2) = b, m(1,2) = c (0 is infinity)."""
    return CoxeterSystem(("a", "b", "c"), ((1, a, b), (a, 1, c), (b, c, 1)))


SPELLING_CASES = {
    **{f"hexagon-r{r}": (HEXAGON, r) for r in range(9)},
    "pentagon-r6": (CoxeterSystem.right_angled_polygon(5), 6),
    "(3,3,inf)-r10": (triangle(3, 3, 0), 10),
    "(2,3,7)-r12": (triangle(2, 3, 7), 12),
    "(4,4,4)-r6": (triangle(4, 4, 4), 6),
    "rank4-5678-r6": (
        CoxeterSystem(("a", "b", "c", "d"), ((1, 5, 6, 7), (5, 1, 8, 5), (6, 8, 1, 6), (7, 5, 6, 1))),
        6,
    ),
    "dihedral7-r9": (CoxeterSystem.dihedral(7), 9),  # the group has diameter 7
    "infinite-dihedral-r20": (CoxeterSystem.infinite_dihedral(), 20),
}


def ball_within(system, size):
    """The ball of largest radius up to 30 with at most `size` elements, which
    is the whole group when its last sphere is empty."""
    ball = enumerate_ball(system, 1)
    while ball.sphere_sizes[-1] and ball.radius < 30:
        bigger = enumerate_ball(system, ball.radius + 1)
        if len(bigger) > size:
            break
        ball = bigger
    return ball


def lettered_balls(count=20, seed=20261019, size=1500):
    """Balls of `count` seeded random systems of rank 2 to 4, orders 2 to 8
    or infinity, whose generators have distinct names of one or two letters."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(2, 4)
        names = []  # in drawn order, so ids do not follow the names' order
        while len(names) < rank:
            name = "".join(rng.choices("abcdexyz", k=rng.randint(1, 2)))
            if name not in names and name != "e":
                names.append(name)
        matrix = [[1] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i + 1, rank):
                matrix[i][j] = matrix[j][i] = rng.choice((2, 3, 4, 5, 6, 7, 8, 0))
        system = CoxeterSystem(tuple(names), tuple(map(tuple, matrix)))
        yield ball_within(system, size)
