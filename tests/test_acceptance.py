"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import io
import time
from fractions import Fraction
from math import pi

import numpy as np
import pytest
from braid_oracle import naive_ball
from paper_checks import (
    MORSE_THUE,
    SQUARES,
    GroupColoring,
    convexity_check,
    displacement_exponent,
    norm_coloring,
    pair_witness,
    radial_claim_check,
    radial_claim_scan,
    sample_overlap_fraction,
    squares_limit_defect,
    tile_of_faces,
    verify_unbalanced_witness,
    z_color,
    z_witness,
)
from polygon_geometry import angles
from rebase_oracle import rebase_parity_check
from zlattice import ZLattice

from coxtile.cli import main as cli_main
from coxtile.coxeter import (
    CoxeterSystem,
    enumerate_ball,
)
from coxtile.errors import InconclusiveError
from coxtile.hyperbolic import (
    build_polygon,
    hyp_dist,
    reflection_matrices,
    render_svg,
)
from coxtile.pipeline import (
    all_plus_resolution,
    alternating_resolution,
    build_walls,
    render_bundle,
)
from coxtile.sequences import (
    square_free_prefix,
    thue_morse_prefix,
    verify_power_free,
)
from coxtile.tiles import (
    WeightFunction,
    classify_balance,
    grid_oracle,
    orient_alternating,
    TileAlphabet,
)
from coxtile.tiling_space import ChamberTiling, translate_compare
from coxtile.walls import (
    alternating_palette,
    build_wall_tree,
    color_walls,
    peel_levels,
    wall_components,
)


def _report(num, desc, started):
    elapsed = time.monotonic() - started
    print(f"CRITERION {num}: PASS - {desc} ({elapsed:.1f}s)")
    return elapsed


def _fail(num, desc, started, detail=""):
    elapsed = time.monotonic() - started
    print(f"CRITERION {num}: FAIL - {desc} ({elapsed:.1f}s) {detail}")
    raise AssertionError(f"criterion {num} failed: {detail}")


def test_criterion_1_sequences():
    t0 = time.monotonic()
    desc = "Thue-Morse 4096 cube-free, ternary 4096 square-free, prefix 021012021"
    mt = thue_morse_prefix(4096)
    tern = square_free_prefix(4096)
    ok = (
        verify_power_free(mt, 3, 4096) is None
        and verify_power_free(tern, 2, 4096) is None
        and tern[:9] == [0, 2, 1, 0, 1, 2, 0, 2, 1]
    )
    if not ok:
        _fail(1, desc, t0)
    elapsed = _report(1, desc, t0)
    assert elapsed < 5.0


def test_criterion_2_z_colorings():
    t0 = time.monotonic()
    desc = "bounded-displacement witnesses on the full grid; squares gap unwitnessed"
    for n in range(-100, 101):
        if n == 0:
            continue
        for m in range(-100, 101):
            q = z_witness(n, m)
            if q is None or abs(q - m) > 3 * abs(n):
                _fail(2, desc, t0, f"grid failure at n={n} m={m}")
            if z_color(MORSE_THUE, q) == z_color(MORSE_THUE, q + n):
                _fail(2, desc, t0, f"bogus witness at n={n} m={m}")
    rho = 10
    m = squares_limit_defect(1, 2 * rho + 2)
    center = m * m + m
    lat = ZLattice(1)
    ball = lat.ball(center + rho + 2)
    squares = GroupColoring(
        ball, [0, 1], {x: z_color(SQUARES, x[0]) for x in ball.members()}
    )
    if pair_witness(ball, squares, (1,), (center,), rho) is not None:
        _fail(2, desc, t0, "squares pair unexpectedly witnessed")
    if pair_witness(ball, squares, (1,), (0,), rho) is None:
        _fail(2, desc, t0, "control pair not witnessed")
    elapsed = _report(2, desc, t0)
    assert elapsed < 10.0


def test_criterion_3_coxeter_core():
    t0 = time.monotonic()
    desc = "sphere sizes, naive-oracle normal forms, wall count = norm"
    ball = enumerate_ball(CoxeterSystem.infinite_dihedral(), 50)
    if ball.sphere_sizes != [1] + [2] * 50:
        _fail(3, desc, t0, "infinite dihedral spheres")
    cases = [
        (CoxeterSystem.dihedral(3), 6),
        (CoxeterSystem.dihedral(4), 7),
        (CoxeterSystem.dihedral(5), 8),
        (CoxeterSystem.infinite_dihedral(), 50),
        (CoxeterSystem.right_angled_polygon(5), 8),  # 7,981 elements <= 10^4
    ]
    for system, radius in cases:
        b = enumerate_ball(system, radius)
        sizes, words = naive_ball(system, radius, max_elements=10_000)
        if b.sphere_sizes != sizes or set(b.words) != words:
            _fail(3, desc, t0, f"oracle mismatch for {system.generators}")
    pent = CoxeterSystem.right_angled_polygon(5)
    b5, ws5 = build_walls(pent, 5)
    for cid in range(len(b5)):
        if len(ws5.sep[cid]) != b5.norms[cid]:
            _fail(3, desc, t0, f"separating count != norm at {b5.words[cid]}")
    # cross-check the crossing-parity counts against the component oracle,
    # labelling the components once per wall
    interior = [cid for cid in range(len(b5)) if b5.norms[cid] <= 3]
    counts = {cid: 0 for cid in interior}
    skipped = 0
    for w in ws5.walls:
        components = wall_components(ws5, w.wid)
        for cid in interior:
            sep_par = ws5.separates(w.wid, 0, cid)
            try:
                sep_cmp = components.separates(0, cid)
            except InconclusiveError:
                skipped += 1
                continue
            if sep_par != sep_cmp:
                _fail(3, desc, t0, f"separation oracle mismatch wall {w.wid}")
            counts[cid] += sep_par
    for cid in interior:
        if counts[cid] != b5.norms[cid]:
            _fail(3, desc, t0, f"component-count != norm at {b5.words[cid]}")
    pairs = len(ws5.walls) * len(interior)
    print(f"criterion 3: component oracle inconclusive on {skipped} of {pairs} pairs")
    _report(3, desc, t0)


def test_criterion_4_radial_claim():
    t0 = time.monotonic()
    desc = "radial claim exhaustive on pentagon radius 6; planted violation caught"
    pent = CoxeterSystem.right_angled_polygon(5)
    ball = enumerate_ball(pent, 6)
    coloring = norm_coloring(ball)
    scan = radial_claim_scan(ball, coloring, max_g_norm=2, min_len=5)
    if scan.failures:
        _fail(4, desc, t0, f"{len(scan.failures)} failures")
    if scan.hypotheses_met < scan.segments:
        _fail(4, desc, t0, "identity element did not meet hypotheses")
    # planted violation on the infinite dihedral line
    line = enumerate_ball(CoxeterSystem.infinite_dihedral(), 14)
    lcol = norm_coloring(line)
    seg = []
    x = ()
    for s in (0, 1, 0, 1, 0):
        x = line.mul(x, (s,))
        seg.append(x)
    far = seg[-1]
    g = line.mul(line.mul(far, (1,)), line.inv(far))
    overrides = {line.mul(g, y): lcol.value(y) for y in seg}
    verdict = radial_claim_check(line, lcol.overridden(overrides), g, seg)
    if verdict.status != "fail":
        _fail(4, desc, t0, f"planted violation verdict {verdict.status}")
    elapsed = _report(4, desc, t0)
    assert elapsed < 60.0


def test_criterion_5_z2_counterexample():
    t0 = time.monotonic()
    desc = "displacement failure witnesses (r, r) on the integer plane"
    lat = ZLattice(2)
    for r in range(1, 9):
        ball = lat.ball(2 * r)
        verdict = displacement_exponent(ball, (1, -1), n_max=r)
        if verdict.exponent is not None or (r, r) not in verdict.witnesses:
            _fail(5, desc, t0, f"radius {r}")
        for k in range(r + 1):
            if lat.norm((r + k, r - k)) != 2 * r:
                _fail(5, desc, t0, f"norm identity broken at r={r} k={k}")
    _report(5, desc, t0)


def test_criterion_6_walls_levels_trees():
    t0 = time.monotonic()
    desc = "hexagon classes disjoint at radius 6, trees sane, rebase flips global"
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = build_walls(hexsys, 6)
    classes = color_walls(ws, alternating_palette(hexsys))
    if not classes.disjoint:
        _fail(6, desc, t0, "classes not disjoint")
    class_wids = dict(classes.by_color)
    orientation = orient_alternating(ws, class_wids)
    for color, wids in classes.by_color.items():
        tree = build_wall_tree(ws, wids)
        # structural tree on the whole class
        if len(tree.edges) != len(tree.vertices) - 1 or set(tree.depth) != set(tree.vertices):
            _fail(6, desc, t0, f"tree malformed for class {color}")
        levels = peel_levels(ws, wids)
        for w in wids:  # every wall's level is exact, the boundary's too
            p = tree.parent.get(w)
            if w != tree.root and (p not in levels or levels[w] != levels[p] + 1
                                   and not (p == tree.root and levels[w] == 1)):
                _fail(6, desc, t0, f"parent link of wall {w} breaks the levels")
        if any(orientation[w] != (-1) ** level for w, level in levels.items()):
            _fail(6, desc, t0, f"orientation of class {color} does not alternate by level")
    for cid in range(len(ball)):
        if not 0 < ball.norms[cid] <= 2:
            continue
        rep = rebase_parity_check(ws, class_wids, orientation, cid)
        if not rep.is_global_flip:
            _fail(6, desc, t0, f"rebase at {ball.words[cid]} not a global flip")
    _report(6, desc, t0)


def test_criterion_7_balance():
    t0 = time.monotonic()
    desc = "alternating strictly balanced, all-plus unbalanced with unit witness, grid oracle"
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = build_walls(hexsys, 5)
    alternating = alternating_resolution(ws, alternating_palette(hexsys))
    v1 = classify_balance(alternating.alphabet)
    if v1.verdict != "strictly_balanced":
        _fail(7, desc, t0, f"alternating verdict {v1.verdict}")
    plus = all_plus_resolution(ws, alternating_palette(hexsys))
    v2 = classify_balance(plus.alphabet)
    if v2.verdict != "unbalanced":
        _fail(7, desc, t0, f"all-plus verdict {v2.verdict}")
    unit = WeightFunction({c: 1 for c in plus.alphabet.colors()})
    sums, allpos = verify_unbalanced_witness(plus.alphabet, unit)
    if not allpos:
        _fail(7, desc, t0, "unit witness does not verify")
    toy_tilesets = [
        [[("c", 1)]],
        [[("c", 1)], [("c", -1)]],
        [[("c", 1), ("c", -1)], [("d", 1)]],
        [[("c", 1), ("d", -1)], [("d", 1), ("c", -1)]],
        [[("c", 1), ("d", 1)], [("c", -1), ("d", 1)], [("d", -1)]],
        [[("a", 1), ("b", -1), ("c", 1)], [("b", 1), ("c", -1)], [("a", -1), ("b", 1)]],
    ]
    alphabets = [alternating.alphabet, plus.alphabet]
    for tiles in toy_tilesets:
        ts = sorted({tile_of_faces(t) for t in tiles}, key=lambda t: [(str(f[0]), f[1]) for f in t])
        alphabets.append(TileAlphabet(ts, {t: i for i, t in enumerate(ts)}, {}, [], 0))
    for alpha in alphabets:
        if len(alpha.colors()) > 6:
            continue
        verdict = classify_balance(alpha)
        oracle = grid_oracle(alpha)
        if oracle["confirms_unbalanced"] and verdict.verdict != "unbalanced":
            _fail(7, desc, t0, "oracle confirms unbalance, classifier disagrees")
        if oracle["refutes_strict_balance"] and verdict.verdict == "strictly_balanced":
            _fail(7, desc, t0, "oracle refutes strict balance, classifier disagrees")
    elapsed = _report(7, desc, t0)
    assert elapsed < 120.0


def test_criterion_8_strong_aperiodicity_proxy():
    t0 = time.monotonic()
    desc = "refined tiling differs for all small g at radius 8; constant tiling fixed"
    hexsys = CoxeterSystem.right_angled_polygon(6)
    ball, ws = build_walls(hexsys, 8)
    res = alternating_resolution(ws, alternating_palette(hexsys), refine=True)
    tiling = ChamberTiling.from_alphabet(ball, res.alphabet)
    small = [g for g in ball.members() if 0 < ball.norm(g) <= 2]
    for g in small:
        verdict = translate_compare(tiling, g, 6)
        if verdict.fixed or verdict.first_depth > 6:
            _fail(8, desc, t0, f"translate by {g} verdict {verdict}")
    const_tile = tuple(("c",) for _ in range(6))
    constant = ChamberTiling(
        ball, {w: const_tile for w in ball.members() if ball.norm(w) <= 7}
    )
    for g in small:
        if not translate_compare(constant, g, 5).fixed:
            _fail(8, desc, t0, f"constant tiling moved by {g}")
    _report(8, desc, t0)


def test_criterion_9_geometry():
    t0 = time.monotonic()
    desc = "right angles, involutions, tile count, overlap, convexity, stable bytes"
    poly = build_polygon(3)
    for ang in angles(poly):
        if abs(ang - pi / 2) >= 1e-9:
            _fail(9, desc, t0, f"interior angle {ang}")
    mats = [np.array(R) for R in reflection_matrices(poly)]
    for k in range(6):
        prod = mats[k] @ mats[(k + 1) % 6]
        if np.max(np.abs(np.linalg.matrix_power(prod, 2) - np.eye(3))) >= 1e-8:
            _fail(9, desc, t0, f"adjacent product order at side {k}")
    bundle = render_bundle(3, 4, refine=True, epsilon_factor=0.05)
    b4 = sum(bundle.ball.sphere_sizes[: 4 + 1])
    if len(bundle.tiles) != b4:
        _fail(9, desc, t0, f"{len(bundle.tiles)} tiles != |B_4| = {b4}")
    for tile in bundle.tiles:
        if not convexity_check(tile.vertices):
            _fail(9, desc, t0, f"nonconvex deformed tile {tile.word}")
    frac = sample_overlap_fraction(bundle.tiles, samples_per_tile=30, seed=0)
    if frac >= 1e-6:
        _fail(9, desc, t0, f"overlap fraction {frac}")
    svg1 = render_svg(bundle.tiles, bundle.face_data, stroke_width=0.004)
    svg2 = render_svg(bundle.tiles, bundle.face_data, stroke_width=0.004)
    if svg1.encode() != svg2.encode():
        _fail(9, desc, t0, "SVG bytes differ")
    _report(9, desc, t0)


def test_criterion_10_cli_reproducibility():
    t0 = time.monotonic()
    desc = "byte-identical CLI output across two invocations"
    configs = [
        ["seq", "--kind", "ternary", "--n", "64", "--power", "2"],
        ["ball", "--system", "pentagon", "--radius", "4", "--words"],
        ["balance", "--system", "pentagon", "--radius", "4"],
        ["color", "--system", "hexagon", "--window", "1"],
        ["space", "--n", "3", "--radius", "4", "--depth", "2"],
    ]
    for argv in configs:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            code = cli_main(argv, out=buf)
            outs.append((code, buf.getvalue().encode()))
        if outs[0] != outs[1]:
            _fail(10, desc, t0, f"nondeterministic output for {argv}")
    _report(10, desc, t0)
