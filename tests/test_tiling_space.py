from fractions import Fraction

import pytest
from zlattice import ZLattice

from coxtile.coxeter import CoxeterSystem
from coxtile.errors import ValidationError, WindowError
from coxtile.pipeline import alternating_resolution, build_walls
from coxtile.tiles import build_alphabet, rebased_alternating
from coxtile.tiling_space import (
    ChamberTiling,
    TilingPatch,
    patch_distance,
    restrict_patch,
    translate_compare,
)
from coxtile.walls import alternating_palette


HEX = CoxeterSystem.right_angled_polygon(6)


def hex_tiling(radius=5, refine=False, chamber=None):
    ball, ws = build_walls(HEX, radius)
    res = alternating_resolution(ws, alternating_palette(HEX), refine=refine)
    if chamber is not None:
        ori = rebased_alternating(ws, res.class_wids, chamber)
        alpha = build_alphabet(ws, res.wall_colors, ori)
    else:
        alpha = res.alphabet
    return ball, ChamberTiling.from_alphabet(ball, alpha)


def constant_tiling(radius=5):
    # the unresolved one-color tiling (opposition fixes faces, no signs):
    # every interior chamber carries the identical label
    ball, _ = build_walls(HEX, radius)
    tile = tuple(("c",) for _ in range(6))
    labels = {w: tile for w in ball.members() if ball.norm(w) <= radius - 1}
    return ball, ChamberTiling(ball, labels)


def test_lattice_ball_tiling_is_refused():
    # labels are keyed by normal forms whose length is their norm, and
    # translates walk the ShortLex tree: a lattice ball has neither
    ball = ZLattice(2).ball(3)
    labels = {p: ("c",) for p in ball.members()}
    with pytest.raises(ValidationError, match="enumerated Coxeter ball, got LatticeBall"):
        ChamberTiling(ball, labels)


def test_restrict_patch_base_only():
    ball, tiling = hex_tiling(3)
    p0 = restrict_patch(tiling, 0)
    assert set(p0.labels) == {()}


def test_restrict_patch_nesting_and_sizes():
    ball, tiling = hex_tiling(4)
    p3 = restrict_patch(tiling, 3)
    p2 = restrict_patch(tiling, 2)
    again = {w: t for w, t in p3.labels.items() if ball.norm(w) <= 2}
    assert again == p2.labels
    assert len(p2.labels) == sum(1 for w in ball.members() if ball.norm(w) <= 2)


def test_restrict_patch_too_deep():
    ball, tiling = hex_tiling(3)
    with pytest.raises(WindowError):
        restrict_patch(tiling, 3)


def test_patch_distance_identity_symmetry():
    ball, tiling = hex_tiling(4)
    p = restrict_patch(tiling, 3)
    q = restrict_patch(tiling, 3)
    assert patch_distance(p, q) == 0
    ball2, tiling2 = hex_tiling(4, chamber=ball.id_of((0,)))
    r = restrict_patch(tiling2, 3)
    assert patch_distance(p, r) == patch_distance(r, p)


def test_patch_distance_depth_mismatch():
    ball, tiling = hex_tiling(4)
    with pytest.raises(WindowError):
        patch_distance(restrict_patch(tiling, 2), restrict_patch(tiling, 3))


def test_rebased_tilings_differ_within_depth2():
    ball, tiling = hex_tiling(5)
    s0 = ball.id_of((0,))
    ball2, rebased = hex_tiling(5, chamber=s0)
    p = restrict_patch(tiling, 4)
    q = restrict_patch(rebased, 4)
    d = patch_distance(p, q)
    assert d >= Fraction(1, 4)  # they differ at depth <= 2


def test_patch_distance_ultrametric():
    ball, t0 = hex_tiling(4)
    tilings = [restrict_patch(t0, 3)]
    for cid in (ball.id_of((0,)), ball.id_of((1,)), ball.id_of((0, 1))):
        tilings.append(restrict_patch(hex_tiling(4, chamber=cid)[1], 3))
    for p in tilings:
        for q in tilings:
            for r in tilings:
                assert patch_distance(p, r) <= max(patch_distance(p, q), patch_distance(q, r))


def depthwise_patch_distance(p, q):
    # the depth-by-depth comparison patch_distance replaced, kept as its reference
    k = -1
    for d in range(p.depth + 1):
        if {w: t for w, t in p.labels.items() if len(w) <= d} != {w: t for w, t in q.labels.items() if len(w) <= d}:
            break
        k = d
    return Fraction(0) if p.labels == q.labels else Fraction(2) if k < 0 else Fraction(1, 2**k)


@pytest.mark.parametrize("refine", [False, True], ids=["unrefined", "refined"])
def test_patch_distance_matches_the_depthwise_comparison(refine):
    ball, t0 = hex_tiling(5, refine=refine)
    patches = [restrict_patch(t0, 4)]
    for word in [(0,), (3,), (0, 2), (1, 4, 1)]:
        patches.append(restrict_patch(hex_tiling(5, refine=refine, chamber=ball.id_of(word))[1], 4))
    # a patch missing one chamber of norm 3, and one that labels e differently
    patches.append(TilingPatch(4, {w: t for w, t in patches[0].labels.items() if w != (0, 2, 0)}))
    patches.append(TilingPatch(4, {**patches[0].labels, (): "other"}))
    for p in patches:
        for q in patches:
            assert patch_distance(p, q) == depthwise_patch_distance(p, q)


def test_translate_identity_fixed():
    ball, tiling = hex_tiling(4)
    assert translate_compare(tiling, (), 3).fixed


def test_constant_tiling_fixed_under_all_small_g():
    ball, tiling = constant_tiling(5)
    for g in ball.members():
        if 0 < ball.norm(g) <= 2:
            verdict = translate_compare(tiling, g, 2)
            assert verdict.fixed


def test_corollary_tiling_differs_small_scale():
    ball, tiling = hex_tiling(6, refine=True)
    for g in ball.members():
        if 0 < ball.norm(g) <= 1:
            verdict = translate_compare(tiling, g, 4)
            assert not verdict.fixed
            assert verdict.first_depth <= 4


def test_differs_stable_under_increasing_depth():
    ball, tiling = hex_tiling(5)
    g = (0,)
    verdicts = []
    first = None
    for depth in range(4):
        v = translate_compare(tiling, g, depth)
        verdicts.append(v.fixed)
        if not v.fixed and first is None:
            first = v.first_depth
    # once differing, always differing, at the same first depth
    assert verdicts == sorted(verdicts, reverse=True)
    if first is not None:
        assert not verdicts[-1]


def test_translate_window_escape():
    ball, tiling = hex_tiling(3)
    g = (0, 2)
    with pytest.raises(WindowError):
        translate_compare(tiling, g, 4)
