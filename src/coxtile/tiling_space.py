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
from itertools import chain

from .coxeter import Ball
from .errors import ValidationError, WindowError
from .tiles import TileAlphabet


@dataclass
class ChamberTiling:
    """A labeled tiling of an enumerated coxeter.Ball: chamber -> tile, keyed
    by the chamber's normal-form word (Ball.words), as reports spell chambers.
    translate_compare walks the ball's ShortLex tree and reads labels by word,
    and restrict_patch reads a chamber's norm off its word's length, so any
    other carrier of group elements is refused."""

    ball: Ball
    labels: dict

    def __post_init__(self):
        if not isinstance(self.ball, Ball):
            raise ValidationError(
                f"a chamber tiling needs an enumerated Coxeter ball, got {type(self.ball).__name__}"
            )

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
    labels = {w: t for w, t in tiling.labels.items() if len(w) <= n}  # normal forms: length is norm
    return TilingPatch(n, labels)


def patch_distance(p: TilingPatch, q: TilingPatch) -> Fraction:
    """0 when the label maps agree; else 2^-k for the largest agreeing depth k,
    one less than the least norm of a chamber the two label differently
    (2 when they differ at e)."""
    if p.depth != q.depth:
        raise WindowError(f"patch depths differ: {p.depth} vs {q.depth}")
    pl, ql = p.labels, q.labels
    # norms of the chambers labeled differently, read without building a set of chambers
    differ = chain((len(w) for w, t in pl.items() if ql.get(w) != t), (len(w) for w in ql if w not in pl))
    first = min(differ, default=None)
    if first is None:
        return Fraction(0)
    return Fraction(2) if first == 0 else Fraction(1, 2 ** (first - 1))


@dataclass
class TranslateVerdict:
    fixed: bool
    first_depth: int | None = None

    def __str__(self):
        return "fixed" if self.fixed else f"differs(depth {self.first_depth})"


def translate_compare(tiling: ChamberTiling, g, depth: int) -> TranslateVerdict:
    """Compare the tiling with its g-translate out to the given depth.

    The translate labels x by the tile at g^{-1} x.  Levels are scanned
    outward, each in id (ShortLex) order, and the first disagreeing depth
    reported; a level that cannot be fully compared (a chamber without a
    label, or one whose image leaves the ball) raises unless the
    disagreement was already found on it.

    x -> g^{-1} x commutes with right multiplication, so for x = p s with p
    x's ShortLex parent, g^{-1} x = (g^{-1} p) s: the images are one lookup
    each in Ball.nbr, filled in id order from the id of g^{-1}, which
    Ball.find gives.  A level is compared only when the one below was
    complete, so every parent's image lies in the ball.
    """
    if depth < 0:
        raise WindowError(f"depth must be nonnegative, got {depth}")
    ball, labels = tiling.ball, tiling.labels
    n, nbr, last, words = ball.system.rank, ball.nbr, ball.last, ball.words
    img = []  # chamber id -> id of g^{-1} x, or -1 outside the ball
    for d in range(min(depth, ball.radius) + 1):
        missing = False
        for x in range(len(img), len(img) + ball.sphere_sizes[d]):
            if x:
                s = last[x]
                y = nbr[img[nbr[x * n + s]] * n + s]
            else:
                y = ball.find(reversed(g))
            img.append(y)
            here = labels.get(words[x])
            there = labels.get(words[y]) if y >= 0 else None
            if here is None or there is None:
                missing = True
            elif here != there:
                return TranslateVerdict(False, d)
        if missing:
            raise WindowError(
                f"labels incomplete at depth {d}; enlarge the ball beyond "
                f"radius {ball.radius}"
            )
    return TranslateVerdict(True)

