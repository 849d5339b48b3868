"""The translate comparison that coxtile.tiling_space replaced, kept verbatim
as a test oracle.  It buckets every label by `Ball.norm` and computes each
image g^-1 x as a normal form with `Ball.mul`, where the library walks the
ShortLex tree in id order.  Used only by tests.
"""

from coxtile.errors import WindowError
from coxtile.tiling_space import ChamberTiling, TranslateVerdict


def translate_compare(tiling: ChamberTiling, g, depth: int) -> TranslateVerdict:
    """Compare the tiling with its g-translate out to the given depth.

    The translate labels x by the tile at g^{-1} x.  Levels are scanned
    outward and the first disagreeing depth reported; a level that cannot
    be fully compared (labels missing near the boundary) raises unless the
    disagreement was already found on it.
    """
    if depth < 0:
        raise WindowError(f"depth must be nonnegative, got {depth}")
    ball = tiling.ball
    ginv = ball.inv(g)
    by_depth: dict = {}
    for w in tiling.labels:
        by_depth.setdefault(ball.norm(w), []).append(w)
    sphere_sizes = getattr(ball, "sphere_sizes", None)
    for d in range(depth + 1):
        level = sorted(by_depth.get(d, []), key=lambda w: (len(w), w))
        if sphere_sizes is not None:
            expected = sphere_sizes[d] if d < len(sphere_sizes) else 0
        else:
            expected = sum(1 for w in ball.members() if ball.norm(w) == d)
        missing = len(level) < expected
        for x in level:
            gx = ball.mul(ginv, x)
            here = tiling.labels[x]
            there = tiling.labels.get(gx)
            if there is None:
                missing = True
                continue
            if here != there:
                return TranslateVerdict(False, d)
        if missing:
            raise WindowError(
                f"labels incomplete at depth {d}; enlarge the ball beyond "
                f"radius {ball.radius}"
            )
    return TranslateVerdict(True)
