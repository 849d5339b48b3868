import random
from fractions import Fraction

import pytest
from ball_oracle import DualVectors, oracle_ball
from braid_oracle import naive_ball, oracle_canonical
from paper_checks import DisplacementVerdict, displacement_exponent, radial_segment
from ra_rewrite_oracle import is_right_angled
from spelling_cases import SPELLING_CASES, lettered_balls
from zlattice import ZLattice

from coxtile.coxeter import (
    CoxeterSystem,
    enumerate_ball,
    load_system,
    reflection_cocycle,
)
from coxtile.errors import OutOfBallError, SizeLimitError, StructureError, ValidationError


def test_load_system_dihedral():
    sys3 = load_system('{"generators": ["s", "t"], "matrix": [[1, 3], [3, 1]]}')
    ball = enumerate_ball(sys3, 6)
    assert len(ball) == 6  # dihedral group of order 6


def test_load_system_pentagon():
    pent = CoxeterSystem.right_angled_polygon(5)
    assert is_right_angled(pent) and not is_right_angled(triangle(3, 3, 0))
    assert pent.m(0, 1) == 2 and pent.m(0, 2) == 0 and pent.m(4, 0) == 2


def test_load_system_validation_errors():
    with pytest.raises(ValidationError, match=r"m\[0\]\[1\]"):
        CoxeterSystem.from_dict({"generators": ["s", "t"], "matrix": [[1, 3], [2, 1]]})
    with pytest.raises(ValidationError, match="diagonal"):
        CoxeterSystem.from_dict({"generators": ["s", "t"], "matrix": [[2, 3], [3, 1]]})
    with pytest.raises(ValidationError, match=r"m\[0\]\[1\]"):
        CoxeterSystem.from_dict({"generators": ["s", "t"], "matrix": [[1, 1], [1, 1]]})


def test_normal_form_dihedral_braid():
    sys3 = CoxeterSystem.dihedral(3)
    assert sys3.normal_form((0, 1, 0)) == (0, 1, 0)
    assert sys3.normal_form((1, 0, 1)) == (0, 1, 0)
    assert sys3.normal_form((0, 0)) == ()


def test_normal_form_right_angled_commutation():
    ra = CoxeterSystem(("s", "t"), ((1, 2), (2, 1)))
    assert ra.normal_form((1, 0)) == (0, 1)
    assert ra.normal_form((0, 0)) == ()


def test_normal_form_idempotent_and_matches_oracle():
    pent = CoxeterSystem.right_angled_polygon(5)
    words = [
        (0, 1, 2, 3, 4),
        (0, 2, 0, 2),
        (1, 0, 1, 3, 1, 1),
        (4, 0, 4, 2, 2, 0),
        (3, 2, 1, 0, 1, 2, 3),
    ]
    for w in words:
        nf = pent.normal_form(w)
        assert pent.normal_form(nf) == nf
        assert nf == oracle_canonical(pent, w)
    sys5 = CoxeterSystem.dihedral(5)
    for w in [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1), (0, 1, 1, 0)]:
        assert sys5.normal_form(w) == oracle_canonical(sys5, w)


def test_ball_infinite_dihedral_growth():
    ball = enumerate_ball(CoxeterSystem.infinite_dihedral(), 10)
    assert [len([i for i, n in enumerate(ball.norms) if n <= r]) for r in range(11)] == [
        2 * r + 1 for r in range(11)
    ]
    assert ball.sphere_sizes == [1] + [2] * 10


def test_ball_dihedral_stabilizes():
    ball = enumerate_ball(CoxeterSystem.dihedral(3), 5)
    assert len(ball) == 6
    assert ball.sphere_sizes == [1, 2, 2, 1, 0, 0]


def test_ball_pentagon_sphere_sizes():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 2)
    assert ball.sphere_sizes == [1, 5, 15]


def test_ball_matches_naive_oracle_small():
    for system, radius in [
        (CoxeterSystem.dihedral(3), 4),
        (CoxeterSystem.dihedral(4), 5),
        (CoxeterSystem.dihedral(5), 6),
        (CoxeterSystem.infinite_dihedral(), 8),
        (CoxeterSystem.right_angled_polygon(5), 4),
    ]:
        ball = enumerate_ball(system, radius)
        sizes, words = naive_ball(system, radius)
        assert ball.sphere_sizes == sizes
        assert set(ball.words) == words


def test_ball_prefix_closed_and_unit_steps():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 4)
    for w in ball.words:
        for i in range(len(w)):
            assert w[:i] in ball.index
    for (eid, s), jid in ball.edges.items():
        assert abs(ball.norms[eid] - ball.norms[jid]) == 1


def test_ball_cap():
    with pytest.raises(SizeLimitError) as err:
        enumerate_ball(CoxeterSystem.right_angled_polygon(5), 6, cap=50)
    assert err.value.partial_count == 50
    # radii 0..2 hold 21 elements; the 45 of radius 3 overflow the cap
    message = str(err.value)
    assert "radius 3 of 6" in message and "0..2" in message and "[1, 5, 15]" in message
    assert "COXTILE_BALL_CAP" in message and "lower the radius" in message
    assert "--" not in message  # the CLI names the flag that sets the radius


@pytest.mark.parametrize("cap", [0, -5])
def test_ball_cap_below_one_is_refused(cap):
    with pytest.raises(ValidationError, match=f"ball cap must be at least 1, got {cap}"):
        enumerate_ball(CoxeterSystem.right_angled_polygon(6), 0, cap=cap)
    assert len(enumerate_ball(CoxeterSystem.right_angled_polygon(6), 0, cap=1)) == 1


def triangle(a, b, c):
    """Rank-3 system with m(0,1) = a, m(0,2) = b, m(1,2) = c (0 is infinity)."""
    return CoxeterSystem(("a", "b", "c"), ((1, a, b), (a, 1, c), (b, c, 1)))


def test_ball_cap_message_on_a_system_that_is_not_right_angled():
    # (3,3,inf) radii 0..4 hold 36 elements; the 26 of radius 5 overflow the cap
    with pytest.raises(SizeLimitError) as err:
        enumerate_ball(triangle(3, 3, 0), 8, cap=50)
    assert err.value.partial_count == 50
    assert str(err.value) == (
        "ball cap 50 exceeded at radius 5 of 8; radii 0..4 are complete with sphere sizes "
        "[1, 3, 6, 10, 16]; raise COXTILE_BALL_CAP or lower the radius"
    )


def test_ball_norm_parity_error_when_a_coset_walk_ends_off_level(monkeypatch):
    # with validation switched off an asymmetric matrix gets through: a new
    # element g s walks its <s, t> coset with order m_st, so m_01 = 2 and
    # m_10 = 3 disagree, and at radius 3 one up-walk ends at e, not at norm 2
    monkeypatch.setattr(CoxeterSystem, "__post_init__", lambda self: None)
    system = CoxeterSystem(("s", "t"), ((1, 2), (3, 1)))
    with pytest.raises(
        StructureError,
        match=r"^norm parity violated: the <0, 1> coset walk from element 3 does not end at norm 2$",
    ):
        enumerate_ball(system, 3)


# rank 4 with orders 5, 6, 7 and 8: the dual vectors live in Z[zeta_1680]
RANK4_5678 = CoxeterSystem(("a", "b", "c", "d"), ((1, 5, 0, 8), (5, 1, 6, 0), (0, 6, 1, 7), (8, 0, 7, 1)))
TREE_BALLS = {
    "hexagon": (CoxeterSystem.right_angled_polygon(6), 5),
    "(3,3,inf)": (triangle(3, 3, 0), 9),
    "(2,3,7)": (triangle(2, 3, 7), 10),
    "rank4-5678": (RANK4_5678, 4),
}


@pytest.mark.parametrize("name", sorted(TREE_BALLS))
def test_lazy_words_are_read_off_the_shortlex_tree(name):
    system, radius = TREE_BALLS[name]
    ball = enumerate_ball(system, radius)
    n = system.rank
    # the enumeration spells no words: every ball builds them on first use
    assert "words" not in vars(ball) and "index" not in vars(ball)
    words = ball.words
    assert len(words) == len(ball) == len(ball.norms) == len(ball.last)
    assert ball.last[0] == -1 and words[0] == ()
    for g, word in enumerate(words):
        assert system.normal_form(word) == word
        assert len(word) == ball.norms[g]
        assert ball.index[word] == g
        letters, x = [], g
        while x:  # the parent chain spells the word backwards, one norm per step
            letters.append(ball.last[x])
            x = ball.nbr[x * n + ball.last[x]]
        assert tuple(reversed(letters)) == word
    assert len(ball.index) == len(words)


def assert_ball_names_match_spell(ball):
    names = ball.names()
    assert names == list(map(ball.system.spell, ball.words))
    assert all(ball.names(k) == names[:k] for k in (0, 1, len(ball) // 2))
    assert [ball.word(i) for i in range(len(ball))] == ball.words


@pytest.mark.parametrize("name", list(SPELLING_CASES))
def test_names_are_read_off_the_shortlex_tree(name):
    system, radius = SPELLING_CASES[name]
    ball = enumerate_ball(system, radius)
    names = ball.names()
    assert "words" not in vars(ball)  # the spelling pass builds no word tuples
    assert_ball_names_match_spell(ball)
    assert len(set(names)) == len(names)


def test_names_are_read_off_the_shortlex_tree_on_random_lettered_systems():
    for ball in lettered_balls():
        assert_ball_names_match_spell(ball)


@pytest.mark.parametrize("generators", [("a", "a.a"), ("", "e"), ("e", "b"), ("a,b", "b"), ("a", "")])
def test_generator_names_that_make_spelled_words_ambiguous_are_refused(generators):
    # with ("a", "a.a"), "a.a.a" would spell both a.(a.a) and (a.a).a
    with pytest.raises(ValidationError, match="ambiguous"):
        CoxeterSystem.from_dict({"generators": list(generators), "matrix": [[1, 0], [0, 1]]})


@pytest.mark.parametrize("name", sorted(TREE_BALLS))
def test_ball_mul_through_the_table_matches_the_system(name):
    system, radius = TREE_BALLS[name]
    ball = enumerate_ball(system, radius)
    rng = random.Random(7)
    members = rng.sample(ball.words, 25)
    # v short (the walk stays in the ball), long (it leaves), or e
    vs = [()] + [tuple(rng.randrange(system.rank) for _ in range(k)) for k in (1, 2, 3, 2 * radius)]
    for u in members:
        assert ball.norm(list(u)) == ball.norm(u) == len(u)
        for v in vs + [tuple(reversed(u))]:
            assert ball.mul(u, v) == system.mul(u, v)
    # letters outside 0..rank-1 in v, first or after the table walk has taken a step
    n = system.rank
    for u, v in [(members[0], (n,)), ((), (-1,)), ((0, 1), (n + 1,)), ((0,), (0, n + 1))]:
        with pytest.raises(ValidationError):
            ball.mul(u, v)
        with pytest.raises(ValidationError):
            system.mul(u, v)


@pytest.mark.parametrize(
    "system, radius",
    [(CoxeterSystem.right_angled_polygon(6), 5), (triangle(3, 3, 0), 8), (RANK4_5678, 4)],
    ids=["hexagon", "(3,3,inf)", "rank4-5678"],
)
def test_ball_find_walks_the_tree_to_an_id(system, radius):
    ball = enumerate_ball(system, radius)
    n = system.rank
    assert [ball.find(w) for w in ball.words] == list(range(len(ball)))
    assert ball.find(list(ball.words[-1])) == len(ball) - 1
    far = [w for w in enumerate_ball(system, radius + 2).words if len(w) > radius]
    rng = random.Random(radius)
    for w in rng.sample(far, 20):
        assert ball.find(w) == -1
        with pytest.raises(OutOfBallError) as exc:
            ball.id_of(w)
        assert str(exc.value) == f"element {w} is outside the radius-{radius} ball"
    # from the outer sphere out of the ball and back: u s s, u w w^-1
    for u in rng.sample(range(len(ball) - ball.sphere_sizes[radius], len(ball)), 20):
        word = ball.words[u]
        s = next(s for s in range(n) if ball.nbr[u * n + s] < 0)
        w = rng.choice(far)
        for detour in [word + (s, s), word + w + tuple(reversed(w))]:
            assert ball.find(detour) == ball.id_of(detour) == u
    for w in [(n,), (-1,), (0, n)]:
        with pytest.raises(ValidationError):
            ball.find(w)
    for w in ball.words[::7] + far[::7] + [(0, 1, 1, 0), (0,) * (2 * radius + 1)]:
        assert (ball.find(w) >= 0) == (system.norm(w) <= radius)


def test_triangle_ball_r22_exact_spheres():
    # (3,3,inf): floating-point keys once counted 92,972 on the outer sphere
    sizes = enumerate_ball(triangle(3, 3, 0), 22, cap=300_000).sphere_sizes
    assert sizes[-3:] == [35_422, 57_314, 92_736]
    assert all(sizes[n] == sizes[n - 1] + sizes[n - 2] for n in range(4, 23))
    assert sizes == steinberg_spheres(3, 3, 0, 22)


def test_ball_matches_naive_oracle_random_rank3():
    rng = random.Random(20261018)
    rings = set()
    for _ in range(80):
        a, b, c = (rng.choice([2, 3, 4, 5, 6, 7, 8, 0]) for _ in range(3))
        system = triangle(a, b, c)
        radius = rng.randint(3, 7)
        ball = enumerate_ball(system, radius)
        sizes, words = naive_ball(system, radius)
        assert ball.sphere_sizes == sizes, (a, b, c, radius)
        assert set(ball.words) == words, (a, b, c, radius)
        assert_tables_match_oracle(ball)
        rings.add(DualVectors(system).d)
    # plain integers (d = 1) and several cyclotomic rings (d > 1) were both covered
    assert 1 in rings and len(rings - {1}) >= 4


def _series_quotient(num, den, n):
    """First n coefficients of the power series num/den (den[0] == 1)."""
    num = list(num) + [0] * (n + len(den))
    for k in range(n):
        for j in range(1, len(den)):
            num[k + j] -= num[k] * den[j]
    return num[:n]


def steinberg_spheres(a, b, c, radius):
    """Sphere sizes of an infinite rank-3 Coxeter group from Steinberg's
    formula 1/W(x) = sum over the T with W_T finite of (-1)^|T| x^N_T / W_T(x):
    1 - 3x/(1+x) + sum over finite m_st of x^m / ((1+x)(1+x+...+x^(m-1)))."""
    n = radius + 1
    terms = [([0, -1], [1, 1])] * 3
    for m in (a, b, c):
        if m:
            dihedral = [1] + [2] * (m - 1) + [1]  # (1 + x)(1 + x + ... + x^(m-1))
            terms.append(([0] * m + [1], dihedral))
    inverse = [1] + [0] * radius
    for num, den in terms:
        inverse = [x + y for x, y in zip(inverse, _series_quotient(num, den, n))]
    return _series_quotient([1], inverse, n)


@pytest.mark.parametrize(
    "orders, radius",
    [((4, 5, 0), 13), ((2, 3, 7), 40)],
    ids=["(4,5,inf)", "(2,3,7)"],
)
def test_sphere_sizes_match_growth_series(orders, radius):
    # floating-point keys got these wrong: 6,859 for 6,858 on the outer
    # sphere, and a norm-parity failure before radius 40
    ball = enumerate_ball(triangle(*orders), radius, cap=300_000)
    assert ball.sphere_sizes == steinberg_spheres(*orders, radius)


def test_sphere_sizes_match_growth_series_random_rank3():
    rng = random.Random(7)
    checked = 0
    while checked < 20:
        a, b, c = (rng.choice([2, 3, 4, 5, 6, 7, 8, 0]) for _ in range(3))
        if sum(Fraction(1, m) for m in (a, b, c) if m) > 1:
            continue  # finite: the formula above needs W infinite
        sizes = enumerate_ball(triangle(a, b, c), 10).sphere_sizes
        assert sizes == steinberg_spheres(a, b, c, 10), (a, b, c)
        checked += 1


def test_dual_step_is_an_involution_and_flips_its_coordinate():
    dual = DualVectors(triangle(5, 0, 7))
    d = dual.d
    f = dual.chamber
    for s in (0, 1, 2, 1, 0):
        g = dual.step(f, s)
        assert dual.step(g, s) == f
        assert g[s * d : s * d + d] == tuple(-x for x in f[s * d : s * d + d])
        f = g


def assert_tables_match_oracle(ball):
    """The key-free ball has the table of the dual-vector-keyed search."""
    norms, nbr, last, sphere_sizes = oracle_ball(ball.system, ball.radius)
    assert ball.norms == norms
    assert ball.nbr == nbr
    assert ball.last == last
    assert ball.sphere_sizes == sphere_sizes


def random_system(rng, rank):
    orders = [2, 3, 4, 5, 6, 7, 8, 0, 0, 12]
    matrix = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            matrix[i][j] = matrix[j][i] = rng.choice(orders)
    return CoxeterSystem(tuple("abcdf"[:rank]), tuple(map(tuple, matrix)))


@pytest.mark.parametrize("rank, radius", [(4, 4), (5, 3)])
def test_ball_tables_match_the_dual_vector_oracle_random(rank, radius):
    rng = random.Random(1000 * rank + 18)
    rings = set()
    for _ in range(12):
        system = random_system(rng, rank)
        assert_tables_match_oracle(enumerate_ball(system, radius))
        rings.add(DualVectors(system).d)
    assert len(rings) >= 3


@pytest.mark.parametrize(
    "system, radius",
    [
        (triangle(5, 2, 3), 16),  # H3, 120 elements: the ball stops growing at 15
        (triangle(4, 2, 3), 10),  # B3, 48 elements
        (triangle(3, 3, 3), 8),  # affine A2
        (RANK4_5678, 5),
    ],
    ids=["H3", "B3", "affine-A2", "rank4-5678"],
)
def test_ball_tables_match_the_dual_vector_oracle(system, radius):
    assert_tables_match_oracle(enumerate_ball(system, radius))


# rank-3 orders that between them hold every m in 2..12 and infinity (0)
WALK_ORDERS = [(4, 8, 0), (5, 10, 2), (6, 12, 3), (2, 7, 11), (9, 2, 3)]


@pytest.mark.parametrize("orders", WALK_ORDERS, ids=str)
def test_ball_tables_match_the_oracle_on_every_coset_walk_length(orders):
    # a coset <s, t> closes once the ball reaches its top, at norm m_st, and
    # then its walk runs m_st - 1 letters down and m_st - 1 up: at radius 6
    # and at the largest order every walk length of the system runs.  A
    # seeded shuffle gives the orders to the generator pairs.
    assert set().union(*WALK_ORDERS) == {0, *range(2, 13)}
    system = triangle(*random.Random(f"walks:{orders}").sample(orders, 3))
    for radius in sorted({6, max(orders)}):
        assert_tables_match_oracle(enumerate_ball(system, radius))


def test_radial_segment():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 4)
    assert radial_segment(ball, ()) == [()]
    g = (0, 2, 1, 3)
    seg = radial_segment(ball, g)
    nf = ball.system.normal_form(g)
    assert len(seg) == len(nf) + 1
    norms = [ball.system.norm(x) for x in seg]
    assert norms == list(range(len(nf) + 1))
    with pytest.raises(OutOfBallError):
        radial_segment(ball, (0, 2, 0, 2, 0, 2, 0, 2, 0, 2))


def test_reflection_cocycle_basics():
    inf = CoxeterSystem.infinite_dihedral()
    entries, reduced = reflection_cocycle(inf, (0,))
    assert entries == [(0,)] and reduced
    entries, reduced = reflection_cocycle(inf, (0, 1))
    assert entries == [(0,), (0, 1, 0)] and reduced
    entries, reduced = reflection_cocycle(inf, (0, 0, 1))
    assert entries == [(1,)] and not reduced


def test_reflection_cocycle_distinct_on_reduced_words():
    pent = CoxeterSystem.right_angled_polygon(5)
    ball = enumerate_ball(pent, 6)
    for w in ball.words:
        entries, reduced = reflection_cocycle(pent, w)
        assert reduced
        assert len(set(entries)) == len(entries) == len(w)


def test_reflection_cocycle_reversal():
    pent = CoxeterSystem.right_angled_polygon(5)
    w = (0, 2, 4, 1, 3)
    entries, _ = reflection_cocycle(pent, w)
    rev_entries, _ = reflection_cocycle(pent, tuple(reversed(w)))
    # reversing conjugates the reversed cocycle by the whole word
    winv = pent.inv(w)
    expect = [pent.mul(pent.mul(winv, r), w) for r in reversed(entries)]
    assert rev_entries == expect


def test_displacement_z2_counterexample():
    lat = ZLattice(2)
    for r in (3, 5, 8):
        # (r, r) has L1 norm 2r, so the enumeration must go out that far
        ball = lat.ball(2 * r)
        verdict = displacement_exponent(ball, (1, -1), n_max=r)
        assert verdict.exponent is None
        assert (r, r) in verdict.witnesses
        # the diagonal family: |(n,n) - k(1,-1)| stays 2n for every k <= n
        for k in range(r + 1):
            assert lat.norm((r + k, r - k)) == 2 * r


def test_displacement_infinite_dihedral():
    ball = enumerate_ball(CoxeterSystem.infinite_dihedral(), 6)
    verdict = displacement_exponent(ball, (0, 1), n_max=4)
    assert verdict.exponent is not None and verdict.exponent <= 2
    assert verdict.order_of_a is None


def test_displacement_odd_norm_identity_element():
    ball = enumerate_ball(CoxeterSystem.right_angled_polygon(5), 2)
    verdict = displacement_exponent(ball, (0,), members=[()], n_max=3)
    assert verdict.exponent == 1
    assert verdict.order_of_a == 2


def test_displacement_rejects_identity():
    ball = enumerate_ball(CoxeterSystem.infinite_dihedral(), 3)
    with pytest.raises(ValidationError):
        displacement_exponent(ball, (), n_max=2)


def test_norm_subadditive_and_unit_steps():
    pent = CoxeterSystem.right_angled_polygon(5)
    ball = enumerate_ball(pent, 3)
    words = ball.words
    for u in words[:20]:
        for v in words[:20]:
            assert pent.norm(pent.mul(u, v)) <= pent.norm(u) + pent.norm(v)
        for s in range(5):
            assert abs(pent.norm(pent.mul(u, (s,))) - pent.norm(u)) == 1


def test_mul_agrees_with_oracle_on_samples():
    pent = CoxeterSystem.right_angled_polygon(5)
    ball = enumerate_ball(pent, 3)
    sample = ball.words[::7]
    for u in sample:
        for v in sample:
            assert pent.mul(u, v) == oracle_canonical(pent, u + v)



def test_full_multiplication_table_dihedral():
    # independent model: s, t are reflections, st is the rotation r; every
    # element is r^a or r^a s and products follow dihedral arithmetic
    for m in (3, 4, 5):
        system = CoxeterSystem.dihedral(m)
        ball = enumerate_ball(system, 2 * m)

        def to_model(word):
            # explicit D_m arithmetic: x = r^rot f^flip, composing letters on
            # the right; s = f and t = r f, so x*s adds a flip while x*t
            # turns by +-1 depending on the current flip
            rot, flip = 0, 0
            for letter in word:
                if letter == 0:
                    flip = 1 - flip
                else:
                    rot = (rot - 1) % m if flip else (rot + 1) % m
                    flip = 1 - flip
            return rot, flip

        model = {}
        for w in ball.words:
            key = to_model(w)
            assert key not in model, f"model collision for {w}"
            model[key] = w
        assert len(model) == 2 * m
        for u in ball.words:
            for v in ball.words:
                assert ball.mul(u, v) == model[to_model(u + v)]


def test_hyperboloid_drift_after_twelve_multiplications():
    # reduced 12-letter word in the hexagon group, evaluated like place_tiles
    from coxtile.hyperbolic import build_polygon, lorentz_dot, reflection_matrices
    import numpy as np

    poly = build_polygon(3)
    mats = [np.array(R) for R in reflection_matrices(poly)]
    word = (0, 2, 4, 0, 2, 4, 0, 2, 4, 0, 2, 4)
    M = np.eye(3)
    for s in word:
        M = M @ mats[s]
    # the word walks ~16 hyperbolic units out, so coordinates reach ~1e8 and
    # the quadratic form cancels catastrophically in absolute terms; the
    # meaningful statement is the scale-relative residual
    for v in (M @ np.array(poly.vertices).T).T:
        assert abs(lorentz_dot(v, v) + 1) < 1e-8 * max(1.0, v[2] ** 2)
        assert v[2] > 0
    J = np.diag([1.0, 1.0, -1.0])
    scale = float(np.max(np.abs(M))) ** 2
    assert np.max(np.abs(M.T @ J @ M - J)) < 1e-8 * scale


def test_ball_cap_env_override(monkeypatch):
    monkeypatch.setenv("COXTILE_BALL_CAP", "30")
    with pytest.raises(SizeLimitError):
        enumerate_ball(CoxeterSystem.right_angled_polygon(5), 4)
    monkeypatch.delenv("COXTILE_BALL_CAP")
    assert len(enumerate_ball(CoxeterSystem.right_angled_polygon(5), 4)) == 166
