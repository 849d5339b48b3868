"""Hyperbolic-plane realization: right-angled polygons, reflections, tiling,
vertex deformation, a simplicity check, and SVG output.

All geometry lives in the hyperboloid model (x, y, z) with x^2+y^2-z^2 = -1,
z > 0, where isometries are linear; the Klein disk is used for simplicity
(geodesics are chords there) and the Poincare disk only at render time.
The convexity and overlap checks of placed tiles are in tests/paper_checks.py.
Points are tuples of three floats and matrices tuples of three rows; sums
run left to right in plain floats, so no BLAS kernel can change the bits.
The kernels spell each 3-vector out as a tuple of its three coordinates,
each one the same float operations, in the same order, as the coordinate
sums they replace, save products by 1.0, which are exact and left out; so
the kernels keep every output bit, and a rendered SVG changes only when the
geometry does.  Work that depends on a side's two end vertices alone (its
sampled geodesic here, its midpoint in pipeline.face_metadata) is done once
per side, for the two tiles that hold the same vertex tuples there.
"""

from dataclasses import dataclass
from math import acosh, cos, cosh, isfinite, isinf, pi, sin, sinh, sqrt

from .errors import GeometryError, ValidationError

TICK = 0.12  # tick depth per unit of ambient distance between a side's two vertices
TICK_LENGTH = 0.02  # a drawn tick's length at the disk centre, shrinking toward the rim
SAMPLE_TOL = 0.005  # the largest chordal error of a drawn geodesic in the Poincare disk
_EYE = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _lin(a, x, b, y) -> tuple[float, float, float]:
    """a x + b y for 3-vectors x and y."""
    return (a * x[0] + b * y[0], a * x[1] + b * y[1], a * x[2] + b * y[2])


def _mat_vec(M, v) -> tuple[float, float, float]:
    """M v for a matrix given by its rows."""
    r, s, t = M
    x, y, z = v
    return (
        r[0] * x + r[1] * y + r[2] * z,
        s[0] * x + s[1] * y + s[2] * z,
        t[0] * x + t[1] * y + t[2] * z,
    )


def lorentz_dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] - u[2] * v[2]


def hyp_dist(u, v) -> float:
    return acosh(max(1.0, -lorentz_dot(u, v)))


def to_poincare(p) -> tuple[float, float]:
    return (p[0] / (1.0 + p[2]), p[1] / (1.0 + p[2]))


def tangent_toward(base, target) -> tuple[float, float, float]:
    """Unit tangent at base pointing along the geodesic to target: the unit
    vector along target + <target, base> base."""
    x, y, z = base
    s = lorentz_dot(target, base)
    u, v, w = target[0] + s * x, target[1] + s * y, target[2] + s * z
    nn = u * u + v * v - w * w
    if nn <= 0:
        raise GeometryError("degenerate tangent direction")
    q = sqrt(nn)
    return (u / q, v / q, w / q)


def cosh_sinh(d: float) -> tuple[float, float]:
    """(cosh d, sinh d).  Raises OverflowError when they leave the floats,
    also for an infinite d, where math.cosh returns inf without raising."""
    c, s = cosh(d), sinh(d)
    if isinf(c):
        raise OverflowError("math range error")
    return c, s


def geodesic_point(a, b, t: float) -> tuple[float, float, float]:
    d = hyp_dist(a, b)
    if d < 1e-15:
        return a
    q = sinh(d)
    x, y = sinh((1.0 - t) * d), sinh(t * d)
    return ((x * a[0] + y * b[0]) / q, (x * a[1] + y * b[1]) / q, (x * a[2] + y * b[2]) / q)


def center_of(vertices) -> tuple[float, float, float]:
    """The vertex sum, scaled back onto the hyperboloid."""
    x, y, z = vertices[0]
    for v in vertices[1:]:
        x, y, z = x + v[0], y + v[1], z + v[2]
    q = sqrt(-(x * x + y * y - z * z))
    return (x / q, y / q, z / q)


# -- the base polygon -----------------------------------------------------------


@dataclass
class HPolygon:
    """Counterclockwise vertex list on the hyperboloid, with the unit Lorentz
    normal of each side, side k joining vertices k and k+1; the basepoint
    lies on the positive side of every normal."""

    vertices: tuple  # p points
    normals: tuple  # p spacelike unit vectors

    @property
    def p(self) -> int:
        return len(self.vertices)

    def side_length(self) -> float:
        return hyp_dist(self.vertices[0], self.vertices[1])


def build_polygon(n: int) -> HPolygon:
    """Regular right-angled 2n-gon centered at the basepoint, in closed form.

    The right triangle of the centre, a vertex and a side's midpoint has
    angles pi/p and pi/4, so the circumradius r has cosh r = cot(pi/p) and
    the inradius h has cosh h = 1 / (sqrt 2 sin(pi/p)) and
    sinh h = sqrt(cos(2 pi/p)) cosh h; a right angle needs p = 2n >= 5.
    Vertex k lies at angle 2 pi k/p, the midpoint of side k at
    (2k+1) pi/p, and the normal of side k is minus the unit vector dual to
    that midpoint.
    """
    p = 2 * n
    if p <= 4:
        raise GeometryError(f"no right-angled regular {p}-gon exists in the hyperbolic plane")
    c = sqrt(cos(2.0 * pi / p))
    sin_a = sin(pi / p)
    ch_r, sh_r = cos(pi / p) / sin_a, c / sin_a
    ch_h = 1.0 / (sqrt(2.0) * sin_a)
    sh_h = c * ch_h
    vertices, normals = [], []
    for k in range(p):
        theta, phi = 2.0 * pi * k / p, (2 * k + 1) * pi / p
        vertices.append((sh_r * cos(theta), sh_r * sin(theta), ch_r))
        normals.append((-ch_h * cos(phi), -ch_h * sin(phi), -sh_h))
    return HPolygon(tuple(vertices), tuple(normals))


# -- reflections ------------------------------------------------------------------


def reflection_matrix(normal) -> tuple:
    """I - 2 n (J n)^T, with J = diag(1, 1, -1) the Lorentz form."""
    jn = (normal[0], normal[1], -normal[2])
    return tuple(
        tuple(e - 2.0 * (x * y) for e, y in zip(row, jn)) for row, x in zip(_EYE, normal)
    )


def reflection_matrices(polygon: HPolygon) -> list[tuple]:
    """One Lorentz reflection per side, side k joining vertices k and k+1."""
    return [reflection_matrix(n) for n in polygon.normals]


# -- tile placement ----------------------------------------------------------------


@dataclass
class PlacedTile:
    cid: int  # the chamber's ball id
    word: tuple
    matrix: tuple
    vertices: tuple


def place_tiles(ball, polygon: HPolygon, matrices, max_norm: int) -> list[PlacedTile]:
    """One placed polygon per ball element of norm at most max_norm, in id
    order.  Ids follow ShortLex, so norms never decrease along them, and
    each element's matrix is its ShortLex parent's times the reflection in
    its last letter, and its word the parent's word and that letter, so only
    the placed tiles' words are built (Ball.words is not read)."""
    n, nbr, last, base = ball.system.rank, ball.nbr, ball.last, polygon.vertices
    # row i of M R is R^T applied to row i of M
    transposed = [tuple(zip(*R)) for R in matrices]
    placed = []
    for i, norm in enumerate(ball.norms):
        if norm > max_norm:
            break
        if i:
            s = last[i]
            parent = placed[nbr[i * n + s]]
            R = transposed[s]
            u, v, w = parent.matrix
            M = (_mat_vec(R, u), _mat_vec(R, v), _mat_vec(R, w))
            word = parent.word + (s,)
        else:
            M, word = _EYE, ()
        placed.append(PlacedTile(i, word, M, tuple([_mat_vec(M, v) for v in base])))
    return placed


# -- simplicity ----------------------------------------------------------------------


def _straddles(a, b, c, d) -> bool:
    """True when c and d lie strictly on opposite sides of the line through
    a and b: the orientations of (a, b, c) and (a, b, d) have opposite signs."""
    x, y = b[0] - a[0], b[1] - a[1]
    return (x * (c[1] - a[1]) - y * (c[0] - a[0])) * (x * (d[1] - a[1]) - y * (d[0] - a[0])) < 0


def is_simple(vertices) -> bool:
    """True when no two sides that share no vertex cross in the Klein disk,
    where geodesics are chords."""
    pts = [(v[0] / v[2], v[1] / v[2]) for v in vertices]
    p = len(pts)
    sides = [(pts[k], pts[(k + 1) % p]) for k in range(p)]
    for i, (a, b) in enumerate(sides):
        for c, d in sides[i + 2:p - 1 if i == 0 else p]:
            if _straddles(a, b, c, d) and _straddles(c, d, a, b):
                return False
    return True


# -- vertex deformation -------------------------------------------------------------------


def deform_vertices(ball, placed, polygon: HPolygon, signs, shades: list, epsilon: float) -> list[PlacedTile]:
    """Move every geometric vertex along the bisector of the positive
    quadrant of its two oriented walls wa and wb, by the magnitude
    d = epsilon (shades[wa] + shades[wb] + 1) / 100; each vertex is
    displaced once, so tiles stay face to face, and at epsilon = 0 each
    vertex stays where the first of its tiles placed it.

    Vertex k of chamber g is where the walls of its sides k-1 and k cross.
    The group is right-angled, so the four chambers around it, g, g s_{k-1},
    g s_k and g s_{k-1} s_k, all see those two walls there as their sides
    k-1 and k; two walls of the hyperbolic plane cross at most once, so the
    pair (wall of side k-1, wall of side k) names the point.  The move is
    made in the base tile's frame and carried by g's matrix M: base vertex
    v_k lies on sides k-1 and k, whose inward unit normals n_{k-1} and n_k
    are orthonormal tangents there, so the vertex goes to
    M (cosh d v_k + sinh d (a n_{k-1} + b n_k) / sqrt 2), with a and b the
    signs g sees on those faces.  `signs[cid]` holds the (wall, sign) pairs
    of chamber cid's sides, as `pipeline.render_bundle` reads them off
    WallSet.face_rows.  The base-frame move depends on k, a, b and the shade
    sum only, so it is computed once for each of those, and only M's product
    once per vertex.  Raises
    GeometryError, naming the chamber, when a vertex cannot be moved or a
    deformed tile is no longer simple.
    """
    p, spell = polygon.p, ball.system.spell
    base, normals = polygon.vertices, polygon.normals
    root2 = sqrt(2.0)
    displaced: dict = {}  # (wall of side k-1, wall of side k) -> the moved vertex
    moves: dict = {}  # (k, a, b, shade sum) -> the move of base vertex k, in the base frame
    out = []
    for tile in placed:
        sides, M = signs[tile.cid], tile.matrix
        new_vertices = []
        for k in range(p):
            (wa, a), (wb, b) = sides[k - 1], sides[k]
            vertex = displaced.get((wa, wb))
            if vertex is None:
                shade = shades[wa] + shades[wb]
                moved = moves.get((k, a, b, shade))
                if moved is None:
                    try:
                        c, sh = cosh_sinh(epsilon * (shade + 1) / 100.0)
                    except OverflowError:
                        raise GeometryError(
                            f"vertex {k} of chamber {spell(tile.word)}: moved out of the float range; "
                            "use an epsilon of smaller magnitude"
                        ) from None
                    toward = _lin(a, normals[k - 1], b, normals[k])
                    moved = moves[k, a, b, shade] = _lin(c, base[k], sh / root2, toward)
                vertex = displaced[wa, wb] = _mat_vec(M, moved)
            new_vertices.append(vertex)
        verts = tuple(new_vertices)
        if not is_simple(verts):
            raise GeometryError(
                f"deformation breaks simplicity at chamber {spell(tile.word)}: its moved "
                "vertex ring crosses itself; use an epsilon of smaller magnitude"
            )
        out.append(PlacedTile(tile.cid, tile.word, tile.matrix, verts))
    return out


# -- SVG ---------------------------------------------------------------------------------


_SVG_COLORS = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#393b79", "#637939",
    "#8c6d31", "#843c39", "#7b4173", "#3182bd", "#e6550d", "#31a354",
]


def _fmt(x: float) -> str:
    # the sign of a value that rounds to zero is rounding residue, not data
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _sample_edge(a, b):
    """Poincare-disk polyline for the geodesic a-b with chordal error <= SAMPLE_TOL.
    Each sample is geodesic_point(a, b, t) in the Poincare disk, with the
    distance a-b and its sinh computed once for the edge."""
    d = hyp_dist(a, b)
    q = sinh(d) if d >= 1e-15 else 0.0  # below 1e-15 every sample is a

    def sample(t):
        if d < 1e-15:
            return to_poincare(a)
        x, y = sinh((1.0 - t) * d), sinh(t * d)
        z = (x * a[2] + y * b[2]) / q
        return (((x * a[0] + y * b[0]) / q) / (1.0 + z), ((x * a[1] + y * b[1]) / q) / (1.0 + z))

    start, end = to_poincare(a), to_poincare(b)
    out = [start]

    def recurse(t0, q0, t1, q1, depth):
        tm = 0.5 * (t0 + t1)
        qm = sample(tm)
        mid = ((q0[0] + q1[0]) / 2, (q0[1] + q1[1]) / 2)
        err = sqrt((mid[0] - qm[0]) ** 2 + (mid[1] - qm[1]) ** 2)
        if err > SAMPLE_TOL and depth < 10:
            recurse(t0, q0, tm, qm, depth + 1)
            out.append(qm)
            recurse(tm, qm, t1, q1, depth + 1)

    recurse(0.0, start, 1.0, end, 0)
    out.append(end)
    return out


def render_svg(tiles, face_data, stroke_width: float) -> str:
    """Poincare-disk SVG of placed tiles.

    `face_data[i][k]` carries (color, tick tip, midpoint) for side k of
    tile i, as pipeline.face_metadata computes them: the side is stroked by
    color and a tick is drawn from its midpoint toward the tip, on the
    wall's positive side.  Deterministic: no timestamps, fixed float
    formatting.  A side's sampled, formatted polyline is computed once for
    its two end vertices, in order: the two tiles on a side of a deformed
    tiling hold the same vertex tuples there, in the same order.  Raises
    ValidationError for a stroke width that is negative or not finite.
    """
    if not (isfinite(stroke_width) and stroke_width >= 0):
        raise ValidationError(f"stroke width must be finite and nonnegative, got {stroke_width}")
    width = _fmt(stroke_width)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.05 -1.05 2.10 2.10">',
        f'<circle cx="0" cy="0" r="1" fill="none" stroke="#000000" stroke-width="{width}"/>',
    ]
    color_index: dict = {}

    def css(color):
        if color not in color_index:
            color_index[color] = _SVG_COLORS[len(color_index) % len(_SVG_COLORS)]
        return color_index[color]

    drawn: dict = {}  # (a, b) -> the side's polyline points, formatted
    for i, tile in enumerate(tiles):
        verts = tile.vertices
        p = len(verts)
        word = ".".join(str(s) for s in tile.word) or "e"
        sides = face_data[i]
        colors_attr = ",".join(str(color) for color, _tip, _mid in sides)
        lines.append(f'<g data-word="{word}" data-colors="{colors_attr}">')
        ends = [(verts[k], verts[(k + 1) % p]) for k in range(p)]
        polylines = []
        for a, b in ends:
            pts = drawn.get((a, b))
            if pts is None:
                pts = drawn[a, b] = [f"{_fmt(x)} {_fmt(y)}" for x, y in _sample_edge(a, b)]
            polylines.append(pts)
        path = "M " + " L ".join([q for pts in polylines for q in pts[:-1]]) + " Z"
        lines.append(f'<path d="{path}" fill="#ffffff" fill-opacity="0.0" stroke="none"/>')
        for pts, (color, tip, mid) in zip(polylines, sides):
            d = "M " + " L ".join(pts)
            stroke = css(color)
            lines.append(
                f'<path d="{d}" fill="none" stroke="{stroke}" stroke-width="{width}"/>'
            )
            q0 = to_poincare(mid)
            q1 = to_poincare(tip)
            dx, dy = q1[0] - q0[0], q1[1] - q0[1]
            norm = sqrt(dx * dx + dy * dy) or 1.0
            scale = TICK_LENGTH * (1.0 - (q0[0] ** 2 + q0[1] ** 2)) / norm
            lines.append(
                f'<line x1="{_fmt(q0[0])}" y1="{_fmt(q0[1])}" '
                f'x2="{_fmt(q0[0] + dx * scale)}" y2="{_fmt(q0[1] + dy * scale)}" '
                f'stroke="{stroke}" stroke-width="{width}"/>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
