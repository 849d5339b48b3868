"""Wall words read straight off the ball, checked against the letter-by-letter
spelling of tests/wall_word_oracle.py.

With (g, s) a wall's least edge, `WallSet.canonical_word` returns
nf(g) s nf(g^-1), read off tables over the ShortLex tree, with no word
renormalized.  Every word must equal the normal form of g s g^-1 on
right-angled polygons, on seeded random systems (right-angled, with braid
relations and finite) and on systems with braid relations, even with every
normal form engine disabled; wall ids must follow the ShortLex order of the
words, which is what lets class trees take their least id as the least-word
root.  A right-angled `walls` run must not build `Ball.words` or `Ball.index`.

`WallSet.canonical_names` spells every word at once from chamber names and
inverse ids; it must equal `CoxeterSystem.spell` of `canonical_word` on the
balls of tests/spelling_cases.py, and the `walls` report must come from it
alone, with no word tuple spelled.
"""

import io
import random

import pytest
from ra_rewrite_oracle import is_right_angled
from spelling_cases import SPELLING_CASES, ball_within, lettered_balls
from wall_word_oracle import oracle_wall_words

from coxtile import cli
from coxtile.coxeter import CoxeterSystem, DescentEngine, enumerate_ball
from coxtile.walls import WallSet, alternating_palette, build_wall_tree, color_walls, enumerate_walls

HEXAGON = CoxeterSystem.right_angled_polygon(6)
TRIANGLE_33INF = CoxeterSystem(("a", "b", "c"), ((1, 3, 3), (3, 1, 0), (3, 0, 1)))
RANK4_5678 = CoxeterSystem(
    ("a", "b", "c", "d"), ((1, 5, 6, 7), (5, 1, 8, 5), (6, 8, 1, 6), (7, 5, 6, 1))
)
# orders 2 on {0, 1}, {1, 2}, {2, 3}: a path, where inserting a letter in
# front of a normal form can leave the rest of the word not least
PATH4 = CoxeterSystem(("a", "b", "c", "d"), ((1, 2, 0, 0), (2, 1, 2, 0), (0, 2, 1, 2), (0, 0, 2, 1)))


def random_system(rng, rank, orders):
    matrix = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            matrix[i][j] = matrix[j][i] = rng.choice(orders)
    return CoxeterSystem(tuple(f"s{i}" for i in range(rank)), tuple(map(tuple, matrix)))


def random_right_angled(rng, rank):
    return random_system(rng, rank, (2, 0))


def assert_words_match_oracle(ball):
    ws = enumerate_walls(ball)
    words = [ws.canonical_word(wid) for wid in range(len(ws))]
    assert words == oracle_wall_words(ws)
    # wall ids follow the ShortLex order of the words
    keys = [(len(word), word) for word in words]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    return len(ws)


@pytest.mark.parametrize(
    "system, radius, count",
    [
        (HEXAGON, 6, 4680),
        (CoxeterSystem.right_angled_polygon(5), 8, 4935),
        (CoxeterSystem.right_angled_polygon(7), 6, 18480),
        (TRIANGLE_33INF, 14, 3191),
        (RANK4_5678, 6, 1269),
        (PATH4, 9, 1534),
    ],
    ids=["hexagon", "pentagon", "heptagon", "(3,3,inf)", "rank4-5678", "path4"],
)
def test_wall_words_match_the_oracle(system, radius, count):
    assert assert_words_match_oracle(enumerate_ball(system, radius)) == count


@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_wall_words_match_the_oracle_on_random_right_angled_systems(rank):
    rng = random.Random(20261018 + rank)
    for _ in range(3):
        assert_words_match_oracle(enumerate_ball(random_right_angled(rng, rank), 9 - rank))


@pytest.mark.parametrize("seed", range(4))
def test_wall_words_match_the_oracle_on_random_matrices(seed):
    rng = random.Random(seed)
    kinds = set()
    for k in range(12):
        if k % 4 == 0:
            system = random_system(rng, rng.randint(3, 5), (2, 0))
        elif k % 4 == 1:  # rank 3 with two small orders: often finite
            a, b, c = rng.choice((2, 3, 4, 5, 6, 7, 8, 0)), rng.choice((2, 2, 3)), rng.choice((2, 2, 3))
            system = CoxeterSystem(("s0", "s1", "s2"), ((1, a, b), (a, 1, c), (b, c, 1)))
        else:
            system = random_system(rng, rng.randint(3, 5), (2, 3, 4, 5, 6, 7, 8, 0))
        ball = ball_within(system, 1000)
        kinds.add("right-angled" if is_right_angled(system) else "braided")
        if not ball.sphere_sizes[-1]:
            kinds.add("finite")
        assert_words_match_oracle(ball)
    assert kinds == {"right-angled", "braided", "finite"}


@pytest.mark.parametrize(
    "system, radius",
    [(RANK4_5678, 6), (TRIANGLE_33INF, 14), (HEXAGON, 6)],
    ids=["rank4-5678", "(3,3,inf)", "hexagon"],
)
def test_wall_words_need_no_normal_form_engine(monkeypatch, system, radius):
    ws = enumerate_walls(enumerate_ball(system, radius))
    expected = oracle_wall_words(ws)

    def refuse(self, word):
        raise AssertionError(f"normal_form({word}) called")

    monkeypatch.setattr(CoxeterSystem, "normal_form", refuse)
    monkeypatch.setattr(DescentEngine, "normal_form", refuse)
    assert [ws.canonical_word(wid) for wid in range(len(ws))] == expected


def test_a_deep_wall_is_spelled_without_recursion():
    # the first word asked for lies 3,000 parent walls above e, deeper than
    # Python's default recursion limit: (1, 0)^1500 . 1 . (0, 1)^1500
    ws = enumerate_walls(enumerate_ball(CoxeterSystem.infinite_dihedral(), 3001))
    assert ws.walls[-1].edges[0] == (6000, 1)
    assert ws.canonical_word(len(ws) - 1) == (1, 0) * 3000 + (1,)


def test_walls_and_trees_leave_words_and_index_unbuilt():
    ball = enumerate_ball(HEXAGON, 6)
    ws = enumerate_walls(ball)
    classes = color_walls(ws, alternating_palette(HEXAGON))
    for wids in classes.by_color.values():
        build_wall_tree(ws, wids)
    for w in ws.walls:
        ws.canonical_word(w.wid)
    assert "words" not in ball.__dict__ and "index" not in ball.__dict__


def cli_ball(monkeypatch, argv):
    """The one ball that a successful CLI run builds."""
    built = []

    def build_walls(system, radius):
        built.append(original(system, radius))
        return built[-1]

    original = cli.build_walls
    monkeypatch.setattr(cli, "build_walls", build_walls)
    assert cli.main(argv, out=io.StringIO()) == 0
    (ball, _), = built
    return ball


def test_walls_cli_leaves_words_and_index_unbuilt(monkeypatch):
    argv = ["walls", "--system", "hexagon", "--radius", "6", "--palette", "alternating"]
    ball = cli_ball(monkeypatch, argv)
    assert "words" not in ball.__dict__ and "index" not in ball.__dict__


@pytest.mark.parametrize("g", [None, "s1"])
def test_space_cli_leaves_index_unbuilt(monkeypatch, g):
    # Ball.words stays: the tiling is keyed by normal-form words
    argv = ["space", "--n", "3", "--radius", "5", "--depth", "3"] + (["--g", g] if g else [])
    ball = cli_ball(monkeypatch, argv)
    assert "index" not in ball.__dict__


def assert_names_match_spelled_words(ball):
    ws = enumerate_walls(ball)
    spell = ball.system.spell
    assert ws.canonical_names() == [spell(ws.canonical_word(wid)) for wid in range(len(ws))]
    return len(ws)


@pytest.mark.parametrize("name", list(SPELLING_CASES))
def test_wall_names_match_the_spelled_words(name):
    system, radius = SPELLING_CASES[name]
    count = assert_names_match_spelled_words(enumerate_ball(system, radius))
    assert count > 0 or radius == 0


def test_wall_names_match_the_spelled_words_on_random_lettered_systems():
    assert sum(map(assert_names_match_spelled_words, lettered_balls())) > 0


def test_walls_cli_spells_no_word_tuples(monkeypatch):
    argv = ["walls", "--system", "hexagon", "--radius", "5"]
    expected = io.StringIO()
    assert cli.main(argv, out=expected) == 0

    def refuse(*args):
        raise AssertionError(f"called with {args[1:]}")

    monkeypatch.setattr(WallSet, "canonical_word", refuse)
    monkeypatch.setattr(CoxeterSystem, "spell", refuse)
    out = io.StringIO()
    assert cli.main(argv, out=out) == 0
    assert out.getvalue() == expected.getvalue()
