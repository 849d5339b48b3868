"""Wall words read off the parent wall, checked against the letter-by-letter
spelling of tests/wall_word_oracle.py, and the one-pass left multiplication
`coxeter._ra_gen_mul` that the right-angled recursion runs on.

`WallSet.canonical_word` spells r = t r' t from the wall r' one letter in,
with t and the suffix g[1:] read off tables over the ShortLex tree.  Every
word must equal the normal form of g s g^-1 on right-angled polygons, on
seeded random right-angled systems and on systems with braid relations; the
left multiplication must equal `normal_form((t,) + nf)`, including the cases
that the naive insertion and the one-pass spelling get wrong.  A right-angled
`walls` run must not build `Ball.words` or `Ball.index`.
"""

import io
import random

import pytest
from wall_word_oracle import oracle_wall_words

from coxtile import cli
from coxtile.coxeter import CoxeterSystem, _ra_gen_mul, enumerate_ball
from coxtile.walls import alternating_palette, build_wall_tree, color_walls, enumerate_walls

HEXAGON = CoxeterSystem.right_angled_polygon(6)
TRIANGLE_33INF = CoxeterSystem(("a", "b", "c"), ((1, 3, 3), (3, 1, 0), (3, 0, 1)))
RANK4_5678 = CoxeterSystem(
    ("a", "b", "c", "d"), ((1, 5, 6, 7), (5, 1, 8, 5), (6, 8, 1, 6), (7, 5, 6, 1))
)
# orders 2 on {0, 1}, {1, 2}, {2, 3}: a path, where J t R is not least
PATH4 = CoxeterSystem(("a", "b", "c", "d"), ((1, 2, 0, 0), (2, 1, 2, 0), (0, 2, 1, 2), (0, 0, 2, 1)))


def random_right_angled(rng, rank):
    matrix = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            matrix[i][j] = matrix[j][i] = rng.choice((2, 0))
    return CoxeterSystem(tuple(f"s{i}" for i in range(rank)), tuple(map(tuple, matrix)))


def assert_words_match_oracle(system, radius):
    ws = enumerate_walls(enumerate_ball(system, radius))
    # the last wall first, so each word is spelled down a chain of parent walls
    words = [ws.canonical_word(wid) for wid in reversed(range(len(ws)))][::-1]
    assert words == oracle_wall_words(ws)
    return len(ws)


@pytest.mark.parametrize(
    "system, radius, count",
    [
        (HEXAGON, 6, 4680),
        (CoxeterSystem.right_angled_polygon(5), 8, 4935),
        (CoxeterSystem.right_angled_polygon(7), 6, 18480),
        (TRIANGLE_33INF, 14, 3191),
        (RANK4_5678, 6, 1269),
    ],
    ids=["hexagon", "pentagon", "heptagon", "(3,3,inf)", "rank4-5678"],
)
def test_wall_words_match_the_oracle(system, radius, count):
    assert assert_words_match_oracle(system, radius) == count


@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_wall_words_match_the_oracle_on_random_right_angled_systems(rank):
    rng = random.Random(20261018 + rank)
    for _ in range(3):
        assert_words_match_oracle(random_right_angled(rng, rank), 9 - rank)


def test_wall_words_are_spelled_down_the_parent_chain_only():
    ws = enumerate_walls(enumerate_ball(HEXAGON, 6))
    wid = len(ws) - 1
    g, _ = ws.walls[wid].edges[0]
    ws.canonical_word(wid)
    spelled = [w for w, word in enumerate(ws._words) if word is not None]
    # one wall per letter of g, plus the wall at e that ends the chain
    assert wid in spelled and len(spelled) <= ws.ball.norms[g] + 1


def test_a_deep_wall_is_spelled_without_recursion():
    # the first word asked for lies 3,000 parent walls above e, deeper than
    # Python's default recursion limit: (1, 0)^1500 . 1 . (0, 1)^1500
    ws = enumerate_walls(enumerate_ball(CoxeterSystem.infinite_dihedral(), 3001))
    assert ws.walls[-1].edges[0] == (6000, 1)
    assert ws.canonical_word(len(ws) - 1) == (1, 0) * 3000 + (1,)


def test_left_multiplication_hexagon_example():
    # naive insertion before the first letter that fails to commute with 2
    # would give (2, 0, 1); 1 commutes with 2 and moves in front
    assert _ra_gen_mul(HEXAGON, 2, (0, 1)) == (1, 2, 0) == HEXAGON.normal_form((2, 0, 1))


def test_left_multiplication_where_the_rest_is_not_least():
    # J = (2) and R = (1, 0): 0 commutes with 1 but followed 2 in nf, so J t R
    # = (2, 3, 1, 0) is not least; the right-multiplication fallback answers
    assert _ra_gen_mul(PATH4, 3, (1, 2, 0)) == (2, 3, 0, 1) == PATH4.normal_form((3, 1, 2, 0))


@pytest.mark.parametrize("seed", range(4))
def test_left_multiplication_matches_normal_form(seed):
    rng = random.Random(seed)
    systems = [HEXAGON, PATH4] + [random_right_angled(rng, rank) for rank in (3, 4, 5, 6, 7)]
    for system in systems:
        for _ in range(300):
            nf = system.normal_form([rng.randrange(system.rank) for _ in range(rng.randint(0, 14))])
            t = rng.randrange(system.rank)  # a left descent of nf sometimes: t nf is shorter
            assert _ra_gen_mul(system, t, nf) == system.normal_form((t,) + nf), (system, t, nf)


def test_walls_and_trees_leave_words_and_index_unbuilt():
    ball = enumerate_ball(HEXAGON, 6)
    ws = enumerate_walls(ball)
    classes = color_walls(ws, alternating_palette(HEXAGON))
    for wids in classes.by_color.values():
        build_wall_tree(ws, wids)
    for w in ws.walls:
        ws.canonical_word(w.wid)
    assert "words" not in ball.__dict__ and "index" not in ball.__dict__


def test_walls_cli_leaves_words_and_index_unbuilt(monkeypatch):
    built = []

    def build_walls(system, radius):
        built.append(original(system, radius))
        return built[-1]

    original = cli.build_walls
    monkeypatch.setattr(cli, "build_walls", build_walls)
    argv = ["walls", "--system", "hexagon", "--radius", "6", "--palette", "alternating"]
    assert cli.main(argv, out=io.StringIO()) == 0
    (ball, _), = built
    assert "words" not in ball.__dict__ and "index" not in ball.__dict__
