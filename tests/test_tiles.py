import hashlib
import json
import random
from fractions import Fraction

import peel_oracle
import pytest
from paper_checks import tile_of_faces, verify_unbalanced_witness
from rebase_oracle import rebase_parity_check
from wall_faces import wall_of_face

from coxtile import tiles as tiles_module
from coxtile.coxeter import CoxeterSystem
from coxtile.errors import StructureError, ValidationError
from coxtile.pipeline import all_plus_resolution, alternating_resolution, build_walls
from coxtile.ratlp import LPResult
from coxtile.tiles import (
    BalanceVerdict,
    TileAlphabet,
    WeightFunction,
    build_alphabet,
    classify_balance,
    grid_oracle,
    orient_all_plus,
    orient_alternating,
    rebased_alternating,
)
from coxtile.walls import alternating_palette, color_walls, peel_levels

HEXAGON = CoxeterSystem.right_angled_polygon(6)
OCTAGON = CoxeterSystem.right_angled_polygon(8)


def toy_alphabet(tiles):
    tiles = [tile_of_faces(t) for t in tiles]
    tiles = sorted(set(tiles), key=lambda t: [(str(f[0]), f[1]) for f in t])
    return TileAlphabet(tiles, {t: i for i, t in enumerate(tiles)}, {}, [], radius=0)


def test_orient_alternating_signs():
    # the infinite dihedral group: walls a, aba, ababa (ids 0, 2, 4) lie at
    # levels 1, 2, 3 from e, and so do b, bab, babab (ids 1, 3, 5)
    _, ws = build_walls(CoxeterSystem(("a", "b"), ((1, 0), (0, 1))), 3)
    classes = {"a": [0, 2, 4], "b": [1, 3, 5]}
    assert orient_alternating(ws, classes) == [-1, -1, 1, 1, -1, -1]
    assert orient_alternating(ws, classes, flips={"a": True}) == [1, -1, -1, 1, 1, -1]
    assert orient_alternating(ws, {"a": [0, 2, 4]}) == [-1, None, 1, None, -1, None]


def test_all_plus_and_base_chamber_faces():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = build_walls(hexsys, 3)
    classes = color_walls(ws, alternating_palette(hexsys))
    alpha = build_alphabet(ws, classes.color, orient_all_plus(ws))
    base_tile = alpha.tiles[alpha.chamber_tile[0]]
    assert all(sign == 1 for _, sign in base_tile)


def test_adjacent_chambers_see_opposite_signs():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = build_walls(hexsys, 3)
    classes = color_walls(ws, alternating_palette(hexsys))
    ori = orient_all_plus(ws)
    base = 0
    for cid in range(len(ball)):
        for s in range(6):
            if (cid, s) not in ball.edges:
                continue
            jid = ball.edges[(cid, s)]
            wid = wall_of_face(ws, cid, s)
            side_c = -1 if ws.separates(wid, base, cid) else 1
            side_j = -1 if ws.separates(wid, base, jid) else 1
            assert side_c == -side_j


def test_single_face_unbalanced():
    alpha = toy_alphabet([[("c", 1)]])
    verdict = classify_balance(alpha)
    assert verdict.verdict == "unbalanced"
    assert verdict.witness.tile_sum(alpha.tiles[0]) > 0


def test_opposite_pair_strictly_balanced():
    alpha = toy_alphabet([[("c", 1)], [("c", -1)]])
    assert classify_balance(alpha).verdict == "strictly_balanced"


def test_semibalanced_case():
    # color d only ever appears with sign +, color c cancels within a tile:
    # w(d)=1, w(c)=0 keeps sums >= 0 but a zero-sum tile blocks positivity
    alpha = toy_alphabet([[("c", 1), ("c", -1)], [("d", 1)]])
    verdict = classify_balance(alpha)
    assert verdict.verdict == "semibalanced"
    assert verdict.witness.nontrivial
    assert all(s >= 0 for s in verdict.tile_sums)


def test_classifier_agrees_with_grid_oracle_on_toys():
    toys = [
        [[("c", 1)]],
        [[("c", 1)], [("c", -1)]],
        [[("c", 1), ("c", -1)], [("d", 1)]],
        [[("c", 1), ("d", -1)], [("d", 1), ("c", -1)]],
        [[("c", 1), ("d", 1)], [("c", -1), ("d", 1)], [("d", -1)]],
        [[("a", 1), ("b", -1), ("c", 1)], [("b", 1), ("c", -1)], [("a", -1), ("b", 1)]],
    ]
    # the oracle decides only within its grid: it can confirm unbalance and
    # refute strict balance, never the converses (witnesses may need weights
    # outside [-2, 2], e.g. the last toy needs w = (2, 3, 2))
    for tiles in toys:
        alpha = toy_alphabet(tiles)
        verdict = classify_balance(alpha)
        oracle = grid_oracle(alpha)
        if oracle["confirms_unbalanced"]:
            assert verdict.verdict == "unbalanced"
        if oracle["refutes_strict_balance"]:
            assert verdict.verdict != "strictly_balanced"


def test_verify_witness_scaling_and_negation():
    alpha = toy_alphabet([[("c", 1)]])
    verdict = classify_balance(alpha)
    w = verdict.witness
    sums, allpos = verify_unbalanced_witness(alpha, w)
    assert allpos
    scaled = WeightFunction({c: 7 * v for c, v in w.weights.items()})
    sums2, allpos2 = verify_unbalanced_witness(alpha, scaled)
    assert allpos2 and [7 * s for s in sums] == sums2
    negated = WeightFunction({c: -v for c, v in w.weights.items()})
    sums3, allpos3 = verify_unbalanced_witness(alpha, negated)
    assert not allpos3 and all(s < 0 for s in sums3)


def test_verify_witness_zero_and_antisymmetry_error():
    alpha = toy_alphabet([[("c", 1)], [("c", -1)]])
    sums, allpos = verify_unbalanced_witness(alpha, WeightFunction({"c": 0}))
    assert sums == [0, 0] and not allpos
    with pytest.raises(ValidationError):
        verify_unbalanced_witness(alpha, {("c", 1): 1, ("c", -1): 1})


def test_verify_witness_accepts_an_antisymmetric_face_map():
    # a raw face -> value map is read as the weight function it spells
    alpha = toy_alphabet([[("c", 1), ("d", -1)], [("c", -1)]])
    raw = {("c", 1): 2, ("c", -1): -2, ("d", 1): Fraction(1, 2), ("d", -1): Fraction(-1, 2)}
    sums, allpos = verify_unbalanced_witness(alpha, raw)
    assert (sums, allpos) == verify_unbalanced_witness(alpha, WeightFunction({"c": 2, "d": Fraction(1, 2)}))
    assert sorted(sums) == [-2, Fraction(3, 2)] and not allpos


def test_hexagon_alternating_strictly_balanced_small():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = build_walls(hexsys, 4)
    res = alternating_resolution(ws, alternating_palette(hexsys))
    assert classify_balance(res.alphabet).verdict == "strictly_balanced"


def test_hexagon_all_plus_unbalanced_with_unit_witness():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = build_walls(hexsys, 4)
    res = all_plus_resolution(ws, alternating_palette(hexsys))
    verdict = classify_balance(res.alphabet)
    assert verdict.verdict == "unbalanced"
    unit = WeightFunction({c: 1 for c in res.alphabet.colors()})
    sums, allpos = verify_unbalanced_witness(res.alphabet, unit)
    assert allpos


def test_pentagon_alphabet_stable_radius4_to_5():
    pent = CoxeterSystem.right_angled_polygon(5)
    alphas = {}
    for r in (4, 5):
        ball, ws = build_walls(pent, r)
        classes = color_walls(ws, {s: s for s in range(5)})
        alpha = build_alphabet(ws, classes.color, orient_all_plus(ws))
        alphas[r] = set(alpha.tiles)
    assert alphas[4] == alphas[5]


def test_bad_palette_raises():
    ball, ws = build_walls(CoxeterSystem.dihedral(3), 3)
    with pytest.raises(ValidationError, match="palette invalid"):
        alternating_resolution(ws, {0: "c", 1: "c"})


@pytest.mark.parametrize("bad", [0, 2, None])
def test_build_alphabet_names_the_invalid_sign_after_a_valid_minus_one(bad):
    # the refusal names the first wall whose sign is neither +1 nor -1, so a
    # valid -1 before it is passed over
    _, ws = build_walls(HEXAGON, 3)
    colors = alternating_resolution(ws, alternating_palette(HEXAGON)).wall_colors
    orientation = [-1, -1] + [1] * (len(ws) - 2)
    orientation[3] = bad
    with pytest.raises(ValidationError, match=f"^wall 3 has color '[ab]' and sign {bad}: every wall needs"):
        build_alphabet(ws, colors, orientation)


def test_rebase_identity_chamber():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = build_walls(hexsys, 4)
    res = alternating_resolution(ws, alternating_palette(hexsys))
    rep = rebase_parity_check(ws, res.class_wids, res.orientation, 0)
    assert rep.is_global_flip
    assert all(f == 0 for f in rep.flips.values())
    assert rep.orientation == res.orientation


def test_rebase_neighbors_global_flip_and_balance():
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = build_walls(hexsys, 5)
    res = alternating_resolution(ws, alternating_palette(hexsys))
    for cid in range(len(ball)):
        if ball.norms[cid] > 1:
            continue
        rep = rebase_parity_check(ws, res.class_wids, res.orientation, cid)
        assert rep.is_global_flip
        alpha = build_alphabet(ws, res.wall_colors, rep.orientation)
        assert classify_balance(alpha).verdict == "strictly_balanced"


def test_refined_resolution_palette():
    # the refined alphabet is still growing at this radius (strict balance
    # only emerges around radius 6); here we pin the palette structure
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = build_walls(hexsys, 4)
    res = alternating_resolution(ws, alternating_palette(hexsys), refine=True)
    used = {color for color in res.wall_colors}
    # every refined color is (class, (t, d mod 3)); nine possible per class
    assert all(cls in ("a", "b") and len(pair) == 2 for cls, pair in used)
    assert {w for w, c in enumerate(res.wall_colors) if c is not None} == {w.wid for w in ws.walls}
    # refined classes are subsets of the palette classes, still disjoint,
    # and their levels alternate the orientation
    for (cls, pair), wids in res.class_wids.items():
        levels = peel_levels(ws, wids)
        for w in wids:
            assert res.wall_colors[w] == (cls, pair)
            assert res.orientation[w] == (-1) ** levels[w]


@pytest.mark.parametrize(
    "system, radius",
    [(HEXAGON, 5), (HEXAGON, 6), (HEXAGON, 7), (OCTAGON, 5)],
    ids=["hexagon-5", "hexagon-6", "hexagon-7", "octagon-5"],
)
@pytest.mark.parametrize("refine", [False, True], ids=["unrefined", "refined"])
def test_alternating_signs_match_peeled_levels(system, radius, refine):
    # orient_alternating, which the resolution reads, against flip * (-1)^level
    # with the levels peeled per class by the round-based oracle
    # (tests/peel_oracle.py), for the default and 20 seeded flip patterns
    _, ws = build_walls(system, radius)
    palette = alternating_palette(system)
    class_wids = alternating_resolution(ws, palette, refine=refine).class_wids
    levels = {cls: peel_oracle.peel_levels(ws, wids) for cls, wids in class_wids.items()}
    rng = random.Random(radius * 2 + refine)
    seeded = [{cls: rng.random() < 0.5 for cls in class_wids} for _ in range(20)]
    assert any(any(flips.values()) for flips in seeded)
    for i, flips in enumerate([None, {}] + seeded):
        want = [None] * len(ws)
        for cls, lev in levels.items():
            f = -1 if flips and flips[cls] else 1
            for w, level in lev.items():
                want[w] = f * (-1) ** level
        assert orient_alternating(ws, class_wids, flips) == want
        if i < 3:
            assert alternating_resolution(ws, palette, refine=refine, flips=flips).orientation == want


def test_alternating_resolution_peels_no_levels(monkeypatch):
    # both resolutions read levels off class walks and peel nothing: a
    # refined one reads the palette's walk to color (wall_coloring), and the
    # alternating orientation reads one more walk (orient_alternating)
    import coxtile.walls as walls

    calls = []
    for module in (tiles_module, walls):
        real = module.class_walk
        monkeypatch.setattr(module, "class_walk", lambda *args, real=real: calls.append(args) or real(*args))

    def refuse(*args):
        raise AssertionError("a peel was called")

    for name in ("peel_levels", "build_wall_tree"):
        monkeypatch.setattr(walls, name, refuse)
    _, ws = build_walls(HEXAGON, 4)
    palette = alternating_palette(HEXAGON)
    for refine in (False, True):
        calls.clear()
        res = alternating_resolution(ws, palette, refine=refine, flips={"a": True})
        assert len(calls) == 1 + refine
        assert {w for w, o in enumerate(res.orientation) if o is not None} == set(range(len(ws)))


@pytest.mark.parametrize("refine", [False, True], ids=["unrefined", "refined"])
def test_all_plus_resolution_peels_on_first_read(monkeypatch, refine):
    # the all-plus orientation reads no level: building it peels nothing and
    # reads a class walk only to color a refined palette; the levels peeled
    # off its classes on a first read are those the alternating one signs by
    import coxtile.walls as walls

    calls = []
    for module in (tiles_module, walls):
        real = module.class_walk
        monkeypatch.setattr(module, "class_walk", lambda *args, real=real: calls.append(args) or real(*args))

    def refuse(*args):
        raise AssertionError("a peel was called")

    _, ws = build_walls(HEXAGON, 4)
    palette = alternating_palette(HEXAGON)
    with monkeypatch.context() as m:
        for name in ("peel_levels", "build_wall_tree"):
            m.setattr(walls, name, refuse)
        res = all_plus_resolution(ws, palette, refine=refine)
    assert len(calls) == refine
    assert res.orientation == [1] * len(ws)
    alt = alternating_resolution(ws, palette, refine=refine)
    assert res.class_wids == alt.class_wids
    for wids in res.class_wids.values():
        for w, level in peel_levels(ws, wids).items():
            assert alt.orientation[w] == (-1) ** level


@pytest.mark.parametrize(
    "failing_call",
    [
        pytest.param(0, id="positivity-lp-unbounded"),
        pytest.param(1, id="cone-lp-unbounded"),
        pytest.param(2, id="second-cone-lp-unbounded"),
        pytest.param(4, id="last-cone-lp-unbounded"),
    ],
)
def test_classify_balance_rejects_bad_lp_status(monkeypatch, failing_call):
    # two colors: the positivity LP, then the cone LPs maximizing +-w_c and +-w_d
    calls = []

    def fake_solve_lp(c, A, b):
        calls.append(c)
        if len(calls) - 1 == failing_call:
            return LPResult("unbounded", None, None)
        return LPResult("optimal", [Fraction(0)] * len(c), Fraction(0))

    monkeypatch.setattr(tiles_module, "solve_lp", fake_solve_lp)
    with pytest.raises(StructureError, match="unbounded"):
        classify_balance(toy_alphabet([[("c", 1)], [("c", -1)], [("d", 1)], [("d", -1)]]))
    assert len(calls) == failing_call + 1


def test_classify_balance_rejects_bad_unbalanced_witness(monkeypatch):
    # u = 0, v = 1, t = 1 claims w(c) = -1 makes the tile (c, +) positive
    monkeypatch.setattr(
        tiles_module,
        "solve_lp",
        lambda c, A, b: LPResult("optimal", [Fraction(0), Fraction(1), Fraction(1)], Fraction(1)),
    )
    with pytest.raises(StructureError, match="unbalanced witness"):
        classify_balance(toy_alphabet([[("c", 1)]]))


@pytest.mark.parametrize(
    "x", [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]], ids=["zero", "negative-sum"]
)
def test_classify_balance_rejects_bad_semibalanced_witness(monkeypatch, x):
    def fake_solve_lp(c, A, b):
        if len(c) == 3:  # the positivity LP: no positive weight
            return LPResult("optimal", [Fraction(0)] * 3, Fraction(0))
        return LPResult("optimal", x, Fraction(1))

    monkeypatch.setattr(tiles_module, "solve_lp", fake_solve_lp)
    with pytest.raises(StructureError, match="semibalanced witness"):
        classify_balance(toy_alphabet([[("c", 1)], [("c", -1)]]))


def _lp_sequence_digest(monkeypatch, alphabet):
    """sha256 of every (c, A, b) that classify_balance hands to solve_lp, in order."""
    calls = []
    solve = tiles_module.solve_lp

    def recording(c, A, b):
        calls.append([[str(v) for v in c], [[str(v) for v in row] for row in A], [str(v) for v in b]])
        return solve(c, A, b)

    monkeypatch.setattr(tiles_module, "solve_lp", recording)
    verdict = classify_balance(alphabet)
    digest = hashlib.sha256(json.dumps(calls, separators=(",", ":")).encode()).hexdigest()
    return verdict.verdict, len(calls), digest


def _hexagon_alphabet(radius, make, refine):
    hexsys = CoxeterSystem.right_angled_polygon(6)
    _, ws = build_walls(hexsys, radius)
    return make(ws, alternating_palette(hexsys), refine=refine).alphabet


# recorded before the simplex lost its phase 1, so they pin the LPs themselves:
# a strictly balanced report carries no witness, and its bytes show no LP
LP_SEQUENCES = {
    "hexagon-r5-alternating": (
        lambda: _hexagon_alphabet(5, alternating_resolution, False),
        "strictly_balanced",
        5,
        "aa7a1025a96f1a0fa63629f43929c88339d8ae58f1aa778698432e669a8078ea",
    ),
    "hexagon-r5-all-plus": (
        lambda: _hexagon_alphabet(5, all_plus_resolution, False),
        "unbalanced",
        1,
        "3a748146290f78713015e4b9fe6f509e9dcf7b515b6c828cda739b252575af15",
    ),
    "refined-hexagon-r4-alternating": (
        lambda: _hexagon_alphabet(4, alternating_resolution, True),
        "unbalanced",
        1,
        "6252254c98ef0c80e779a70d1c3bfe3cf76c18b599acab4f37040d44f17d7b0e",
    ),
    "refined-hexagon-r4-all-plus": (
        lambda: _hexagon_alphabet(4, all_plus_resolution, True),
        "unbalanced",
        1,
        "b8dffcff2645c9cd7f82111031cc8935c83d142bdb94fd37e7220781a19a8d4e",
    ),
    "refined-hexagon-r5-alternating": (
        lambda: _hexagon_alphabet(5, alternating_resolution, True),
        "semibalanced",
        5,
        "4a5b7ac2430a57b624b4b7fdd6a0a51dd9f7f855a0974f37023a50b7872c684f",
    ),
    "semibalanced-toy": (
        lambda: toy_alphabet([[("c", 1), ("c", -1)], [("d", 1)]]),
        "semibalanced",
        2,
        "f599da291e18094887e7ded8eb4a7268b85fc7bfa67b02c2f024f3feb9556247",
    ),
}


@pytest.mark.parametrize("name", sorted(LP_SEQUENCES))
def test_classifier_lp_sequence_pinned(monkeypatch, name):
    make, verdict, ncalls, digest = LP_SEQUENCES[name]
    assert _lp_sequence_digest(monkeypatch, make()) == (verdict, ncalls, digest)
