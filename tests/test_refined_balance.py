"""Refined hexagon balance verdicts, pinned with their witnesses and report bytes.

The radius-5 verdicts and witnesses are those of the dense Fraction simplex
that coxtile.ratlp replaced; the radius-4 CLI reports are pinned by sha256
so that any change to a pivot, a witness or the report layout shows.
"""

import hashlib
import io

import pytest

from coxtile.cli import main
from coxtile.coxeter import CoxeterSystem
from coxtile.pipeline import all_plus_resolution, alternating_resolution, build_walls
from coxtile.tiles import classify_balance
from coxtile.walls import alternating_palette

HEXAGON = CoxeterSystem.right_angled_polygon(6)
# refined colors are (class, (t, d mod 3)); listed in the alphabet's color order
R5_COLORS = [(c, pair) for c in "ab" for pair in [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]]


@pytest.fixture(scope="module")
def hexagon_r5():
    return build_walls(HEXAGON, 5)[1]


@pytest.mark.parametrize(
    "make, size, verdict, witness",
    [
        (alternating_resolution, 60, "semibalanced", [0, -2, 0, 0, -1, 0, 0, 0, 0, 0]),
        (all_plus_resolution, 44, "unbalanced", [0, 0, 0, 0, -1, 1, 1, 1, 1, 1]),
    ],
    ids=["alternating", "all-plus"],
)
def test_refined_r5_verdict(hexagon_r5, make, size, verdict, witness):
    res = make(hexagon_r5, alternating_palette(HEXAGON), refine=True)
    alpha = res.alphabet
    assert len(alpha) == size
    assert alpha.colors() == R5_COLORS
    v = classify_balance(alpha)
    assert v.verdict == verdict
    assert v.witness.weights == dict(zip(R5_COLORS, witness))
    weights = dict(zip(R5_COLORS, witness))
    resums = [sum(sign * weights[color] for color, sign in t) for t in alpha.tiles]
    assert resums == v.tile_sums
    if verdict == "unbalanced":
        assert all(s > 0 for s in resums)
    else:
        assert all(s >= 0 for s in resums) and 0 in resums


R4_REPORT_SHA256 = {
    "alternating": "45379d9a599f6a98234fd84fc08777060c70ef02d9dad2863bf50e69ad514b33",
    "all-plus": "fd65d52d4e792647288d7a501b20f13c2688fa1b5f31f1e970082340c7baa229",
}


@pytest.mark.parametrize("orientation", sorted(R4_REPORT_SHA256))
def test_refined_r4_report_bytes(orientation):
    buf = io.StringIO()
    argv = ["balance", "--system", "hexagon", "--radius", "4", "--palette", "alternating"]
    code = main(argv + ["--refine", "--orientation", orientation], out=buf)
    assert code == 0
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == R4_REPORT_SHA256[orientation]
