"""`radial_claim_scan` runs `radial_claim_check`'s own tests on every
segment; it must report exactly what the scan it replaced reports
(tests/claim_scan_oracle.py): the segment, check and hypotheses counts, and
the failures in order.

The infinite dihedral line carries the planted coloring of
`test_radial_claim_planted_violation_detected`, so the failure lists
compared there are not empty.
"""

import pytest
from claim_scan_oracle import radial_claim_scan as oracle_scan
from paper_checks import norm_coloring, radial_claim_scan

from coxtile.coxeter import CoxeterSystem, enumerate_ball


def planted_line():
    ball = enumerate_ball(CoxeterSystem.infinite_dihedral(), 14)
    col = norm_coloring(ball)
    seg = []
    x = ()
    for s in (0, 1, 0, 1, 0):
        x = ball.mul(x, (s,))
        seg.append(x)
    far = seg[-1]
    g = ball.mul(ball.mul(far, (1,)), ball.inv(far))
    return ball, col.overridden({ball.mul(g, y): col.value(y) for y in seg})


def norm_colored(system, radius):
    ball = enumerate_ball(system, radius)
    return ball, norm_coloring(ball)


CASES = {
    "pentagon-r5": (lambda: norm_colored(CoxeterSystem.right_angled_polygon(5), 5), 2, 4),
    "pentagon-r6": (lambda: norm_colored(CoxeterSystem.right_angled_polygon(5), 6), 2, 5),
    "hexagon-r4": (lambda: norm_colored(CoxeterSystem.right_angled_polygon(6), 4), 2, 3),
    "planted-line-r14": (planted_line, 11, 5),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_scan_matches_the_oracle(name):
    build, max_g_norm, min_len = CASES[name]
    ball, coloring = build()
    scan = radial_claim_scan(ball, coloring, max_g_norm, min_len)
    expected = oracle_scan(ball, coloring, max_g_norm, min_len)
    assert scan.segments == expected.segments
    assert scan.checked == expected.checked
    assert scan.hypotheses_met == expected.hypotheses_met
    assert scan.failures == expected.failures
    if name == "planted-line-r14":
        assert (scan.segments, scan.checked, scan.hypotheses_met) == (132, 3036, 153)
        assert len(scan.failures) == 21
