"""The descent engine on right-angled systems, checked against the rewriting
it replaced there (tests/ra_rewrite_oracle.py).

On the pentagon, the hexagon, the octagon and seeded random right-angled
systems of rank 4 to 7, words of up to 40 letters must give the oracle's
normal form through `CoxeterSystem.normal_form`, `mul` and `inv`, and through
`Ball.mul`, `inv` and `norm`, for products that stay in the ball and for
products that leave it.
"""

import random

import pytest
from ra_rewrite_oracle import is_right_angled, ra_normal_form

from coxtile.coxeter import CoxeterSystem, enumerate_ball


def random_right_angled(seed, rank):
    rng = random.Random(seed)
    matrix = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            matrix[i][j] = matrix[j][i] = rng.choice((2, 0))
    return CoxeterSystem(tuple(f"s{i}" for i in range(rank)), tuple(map(tuple, matrix)))


SYSTEMS = {
    "pentagon": CoxeterSystem.right_angled_polygon(5),
    "hexagon": CoxeterSystem.right_angled_polygon(6),
    "octagon": CoxeterSystem.right_angled_polygon(8),
    **{f"random-rank{rank}": random_right_angled(1000 + rank, rank) for rank in range(4, 8)},
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_word_ops_match_the_rewriting_oracle(name):
    system = SYSTEMS[name]
    assert is_right_angled(system)
    ball = enumerate_ball(system, 4)
    rng = random.Random(name)

    def word(max_len=40):
        return tuple(rng.randrange(system.rank) for _ in range(rng.randrange(max_len + 1)))

    for _ in range(150):
        w = word()
        nf = ra_normal_form(system, w)
        assert system.normal_form(w) == nf, w
        assert ball.norm(w) == len(nf), w
        cut = rng.randrange(len(w) + 1)
        assert system.mul(ra_normal_form(system, w[:cut]), w[cut:]) == nf, (w, cut)
        assert system.inv(w) == ball.inv(w) == ra_normal_form(system, w[::-1]), w
    inside = outside = 0
    for u in rng.sample(ball.words, 40):
        assert ball.norm(u) == len(u)
        for v in [word(), word(), word(3), tuple(reversed(u))]:
            uv = ra_normal_form(system, u + v)
            assert ball.mul(u, v) == uv, (u, v)
            inside += len(uv) <= ball.radius
            outside += len(uv) > ball.radius
    # products that stay in the ball walk the table; the others leave it
    assert inside >= 20 and outside >= 20
