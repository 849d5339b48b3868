"""End-to-end assembly of wall colorings and tile resolutions for a system.

The full construction: enumerate a ball, identify walls, refuse a palette
whose walls of one color cross (read off the Coxeter matrix), peel levels,
optionally refine each class by its tree coloring (nine colors per class),
orient walls, and collect the tile alphabet.  Both the CLI and the
acceptance suite drive this module.
"""

from dataclasses import dataclass
from functools import cached_property
from math import isfinite, sqrt

from .colorings import NORM_PALETTE
from .coxeter import CoxeterSystem, enumerate_ball
from .errors import GeometryError, StructureError, ValidationError
from .tiles import TileAlphabet, build_alphabet, orient_all_plus, orient_alternating
from .walls import WallSet, alternating_palette, color_walls, enumerate_walls, wall_coloring


def build_walls(system: CoxeterSystem, radius: int):
    ball = enumerate_ball(system, radius)
    return ball, enumerate_walls(ball)


@dataclass
class Resolution:
    """A signed tile system: wall colors, color classes, orientation, tiles."""

    wallset: WallSet
    wall_colors: list  # wall id -> color, one for every wall
    class_wids: dict  # color class -> wall ids (classes the orientation alternates over)
    orientation: list  # wall id -> +1 / -1, one for every wall

    @cached_property
    def alphabet(self) -> TileAlphabet:
        """The tile alphabet, built on first read: rendering never reads it."""
        return build_alphabet(self.wallset, self.wall_colors, self.orientation)


def _classes(wallset: WallSet, palette: dict, refine: bool):
    classes = color_walls(wallset, palette)
    if not classes.disjoint:
        s, t, m = classes.violations[0]
        a, b = (repr(wallset.ball.system.generators[x]) for x in (s, t))
        raise ValidationError(f"palette invalid: walls of one color cross in the residue of "
                              f"generators {a} and {b}, of order {m}")
    if refine:
        wall_colors = wall_coloring(wallset, classes)
        class_wids: dict = {}
        for wid, color in enumerate(wall_colors):
            class_wids.setdefault(color, []).append(wid)
    else:
        wall_colors, class_wids = classes.color, classes.by_color
    return wall_colors, class_wids


def alternating_resolution(
    wallset: WallSet, palette: dict, refine: bool = False, flips: dict | None = None
) -> Resolution:
    """The level-alternating resolution: sign (-1)^level per color class,
    negated on the classes that `flips` marks."""
    wall_colors, class_wids = _classes(wallset, palette, refine)
    orientation = orient_alternating(wallset, class_wids, flips)
    return Resolution(wallset, wall_colors, class_wids, orientation)


def all_plus_resolution(wallset: WallSet, palette: dict, refine: bool = False) -> Resolution:
    """The resolution orienting every wall canonically."""
    wall_colors, class_wids = _classes(wallset, palette, refine)
    orientation = orient_all_plus(wallset)
    return Resolution(wallset, wall_colors, class_wids, orientation)


# -- hyperbolic-plane demo -------------------------------------------------------


@dataclass
class RenderBundle:
    system: CoxeterSystem
    ball: object
    wallset: WallSet
    resolution: Resolution
    polygon: object
    matrices: list
    tiles: list  # deformed PlacedTile per chamber of norm <= radius
    face_data: list  # per tile, per side: (color, tick tip point, side midpoint)


def face_metadata(tiles, ball, signs, wall_colors):
    """Per-side (color, tick tip, midpoint) records for rendering.

    The tick points toward the wall's positive side: into the tile when the
    tile sees the face with sign +, away otherwise; computed from the
    tile's own vertices so it applies to deformed tiles unchanged.
    `signs[cid]` holds the (wall, sign) pairs of chamber cid's sides, as
    `render_bundle` reads them off WallSet.face_rows for `deform_vertices` too.
    A side's midpoint and tick depth depend on its two end vertices only, so
    they are computed once for the two tiles on it, which hold the same
    vertex tuples there; the tangent toward each tile's centre is its own.
    The midpoint is the record's third field, where render_svg reads it.
    """
    from .hyperbolic import TICK, center_of, cosh_sinh, geodesic_point, tangent_toward

    spell = ball.system.spell
    shared = {}  # (a, b) -> the side's midpoint and the cosh and sinh of its tick depth
    data = []
    for tile in tiles:
        verts = tile.vertices
        p = len(verts)
        c = center_of(verts)
        sides = []
        for k, (wid, seen) in enumerate(signs[tile.cid]):
            a, b = verts[k], verts[(k + 1) % p]
            side = shared.get((a, b))
            mid = geodesic_point(a, b, 0.5) if side is None else side[0]
            try:
                u = tangent_toward(mid, c)
            except GeometryError as exc:
                raise GeometryError(
                    f"side {k} of chamber {spell(tile.word)}: {exc}; "
                    "use an epsilon of smaller magnitude"
                ) from None
            if side is None:  # after the tangent: a side failing both is named for its tangent
                d0, d1, d2 = a[0] - b[0], a[1] - b[1], a[2] - b[2]
                delta = TICK * max(1e-9, sqrt(d0 * d0 + d1 * d1 + d2 * d2))
                try:
                    ch, sh = cosh_sinh(delta)
                except OverflowError:
                    raise GeometryError(
                        f"tick of chamber {spell(tile.word)} leaves the float range: "
                        "use a smaller radius or epsilon"
                    ) from None
                side = shared[a, b] = (mid, ch, sh)
            _, ch, sh = side
            t = seen * sh
            tip = (ch * mid[0] + t * u[0], ch * mid[1] + t * u[1], ch * mid[2] + t * u[2])
            sides.append((wall_colors[wid], tip, mid))
        data.append(sides)
    return data


def render_bundle(n: int, radius: int, refine: bool, epsilon_factor: float) -> RenderBundle:
    """Assemble the full hyperbolic-plane demo for the right-angled 2n-gon,
    deformed by epsilon_factor times the side length; a factor of 0 leaves
    every tile the base polygon's image.

    The ball is enumerated one radius deeper than the rendered tiles so
    every rendered face lies on an identified, colored wall, and the placed
    tiles (norm <= radius) are the ball's first interior chambers, in id
    order: row i of WallSet.face_rows holds chamber i's faces, each 2 * wall
    + far, and the side sees orientation[wall], negated when far is set.
    Every vertex is where an a wall and a b wall cross: in a right-angled
    group a generator is conjugate only to itself, so the walls of sides k-1
    and k reflect conjugates of s_{k-1} and s_k, of opposite parity.
    shades[w] is 9 i for an a wall and i for a b wall of depth color
    NORM_PALETTE[i] (0 unrefined), so the 81 color pairs get the distinct
    vertex magnitudes epsilon (9 i + j + 1) / 100.
    """
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    if not isfinite(epsilon_factor):
        raise ValidationError(f"epsilon factor must be finite, got {epsilon_factor}")
    from .hyperbolic import build_polygon, deform_vertices, place_tiles, reflection_matrices

    system = CoxeterSystem.right_angled_polygon(2 * n)
    polygon = build_polygon(n)
    ball, wallset = build_walls(system, radius + 1)
    res = alternating_resolution(wallset, alternating_palette(system), refine=refine)
    matrices = reflection_matrices(polygon)
    placed = place_tiles(ball, polygon, matrices, max_norm=radius)
    interior, rows = wallset.face_rows
    count, rank, orientation = len(placed), system.rank, res.orientation
    if count > len(interior) or interior[count - 1] != count - 1:  # signs are read by position
        raise StructureError(f"the first {count} interior chambers are not chambers 0 to {count - 1}")
    sides = [(f >> 1, -orientation[f >> 1] if f & 1 else orientation[f >> 1]) for f in rows[:count * rank]]
    signs = [sides[i:i + rank] for i in range(0, len(sides), rank)]
    shades = [
        NORM_PALETTE.index(c[1]) * (9 if c[0] == "a" else 1) if refine else 0 for c in res.wall_colors
    ]
    tiles = deform_vertices(ball, placed, polygon, signs, shades, epsilon_factor * polygon.side_length())
    data = face_metadata(tiles, ball, signs, res.wall_colors)
    return RenderBundle(system, ball, wallset, res, polygon, matrices, tiles, data)
