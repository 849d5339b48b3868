"""Finite-depth model of the space of labeled tilings.

Chambers are geometrically identical, so two tilings-by-coloring differ
only in their labels; a tiling is modeled as a map from chambers to tiles
and compared on nested balls.  This combinatorial comparison is a
surrogate for the hyperspace metric on tilings: it induces the same
finite-depth distinctions on tilings-by-coloring, but no claim is made
beyond that class.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import WindowError
from .tiles import TileAlphabet


@dataclass
class ChamberTiling:
    """A labeled tiling: chamber (by normal-form word) -> tile."""

    ball: object
    labels: dict

    @classmethod
    def from_alphabet(cls, ball, alphabet: TileAlphabet) -> "ChamberTiling":
        labels = {
            ball.words[cid]: alphabet.tiles[tid]
            for cid, tid in alphabet.chamber_tile.items()
        }
        return cls(ball, labels)


@dataclass
class TilingPatch:
    """Tiles of the chambers lying wholly inside the depth-n ball."""

    depth: int
    labels: dict


def patch_as_dict(patch: TilingPatch, system) -> dict:
    """JSON-ready form: depth plus the sorted chamber -> tile map."""
    tiles = sorted({t for t in patch.labels.values()}, key=str)
    tile_ids = {t: i for i, t in enumerate(tiles)}
    chambers = {
        system.spell(w): tile_ids[t]
        for w, t in sorted(patch.labels.items(), key=lambda kv: (len(kv[0]), kv[0]))
    }
    return {
        "depth": patch.depth,
        "tiles": [[list(face) for face in t] for t in tiles],
        "chambers": chambers,
    }


def restrict_patch(tiling: ChamberTiling, n: int) -> TilingPatch:
    if n < 0:
        raise WindowError(f"depth must be nonnegative, got {n}")
    if n > tiling.ball.radius - 1:
        raise WindowError(
            f"depth {n} exceeds the labeled interior of a radius-{tiling.ball.radius} ball"
        )
    labels = {w: t for w, t in tiling.labels.items() if tiling.ball.norm(w) <= n}
    return TilingPatch(n, labels)


def patch_distance(p: TilingPatch, q: TilingPatch) -> Fraction:
    """0 when the label maps agree; else 2^-k for the largest agreeing depth k."""
    if p.depth != q.depth:
        raise WindowError(f"patch depths differ: {p.depth} vs {q.depth}")
    if p.labels == q.labels:
        return Fraction(0)
    k = -1
    for d in range(p.depth + 1):
        pl = {w: t for w, t in p.labels.items() if len(w) <= d}
        ql = {w: t for w, t in q.labels.items() if len(w) <= d}
        if pl != ql:
            break
        k = d
    return Fraction(2) if k < 0 else Fraction(1, 2**k)


@dataclass
class TranslateVerdict:
    fixed: bool
    first_depth: int | None = None

    def __str__(self):
        return "fixed" if self.fixed else f"differs(depth {self.first_depth})"


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
