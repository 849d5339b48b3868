"""The paper's lemma checks: what the tests and the acceptance suite run
against the library, beside the verdicts the CLI prints.

Each definition here once lived in the coxtile module its section is named
after and moved out unchanged, as no CLI command and no benchmark workload
reads it: the radial rigidity claim, finite-index coset transfers, tree and
product colorings, the integer-line colorings and their witness searches,
the bounded-displacement search (whose Z^2 counterexample runs on
zlattice.py), the hyperboloid and convexity checks with overlap sampling,
and the unbalance-witness check.  They run on coxtile.coxeter.Ball and on
zlattice.LatticeBall alike, through the group operations both provide.
Used only by tests.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt
from types import SimpleNamespace

from coxtile import colorings
from coxtile.colorings import _witness, norm_color
from coxtile.coxeter import Ball
from coxtile.errors import GeometryError, OutOfBallError, ValidationError
from coxtile.hyperbolic import _EYE, center_of, hyp_dist, is_simple, lorentz_dot
from coxtile.sequences import _term
from coxtile.tiles import TileAlphabet, WeightFunction, _face_key


# -- colorings --------------------------------------------------------------------


class GroupColoring(colorings.GroupColoring):
    """colorings.GroupColoring with `overridden`, which plants colors into a
    copy; the colorings built here are of this class."""

    def overridden(self, overrides: dict) -> "GroupColoring":
        new = dict(self.assignment)
        new.update(overrides)
        return GroupColoring(self.carrier, self.palette, new, self.by_norm)


def norm_coloring(ball) -> GroupColoring:
    """colorings.norm_coloring, as a GroupColoring that can be overridden."""
    coloring = colorings.norm_coloring(ball)
    return GroupColoring(coloring.carrier, coloring.palette, coloring.assignment, coloring.by_norm)


def tree_norm_coloring(vertices, edges, root) -> dict:
    """Color tree vertices by (t(depth), depth mod 3) from the root.

    Raises ValidationError when the edge set does not connect the vertices
    or contains a cycle.
    """
    vertices, edges = list(vertices), list(edges)
    if root not in vertices:
        raise ValidationError("root must be a vertex")
    adj = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in depth:
                    depth[u] = depth[v] + 1
                    nxt.append(u)
        frontier = nxt
    if len(depth) != len(vertices):
        raise ValidationError("input graph is disconnected")
    if len(edges) != len(vertices) - 1:
        raise ValidationError("input graph is not a tree")
    return {v: norm_color(d) for v, d in depth.items()}


@dataclass
class ClaimVerdict:
    status: str  # "pass" | "fail" | "hypotheses-not-satisfied"
    detail: object = None


def _identity(group):
    """The identity of a Ball, whose members are normal forms, is (); a
    zlattice.LatticeBall names its own."""
    return () if isinstance(group, Ball) else group.identity


def radial_claim_check(ball, coloring: GroupColoring, g, segment) -> ClaimVerdict:
    """Check the norm-rigidity claim on one radial segment.

    Hypotheses: the segment is radial, g preserves its colors pointwise,
    and g displaces some segment point by less than half the vertex count.
    Conclusion checked: g preserves the norms of all segment points.
    """
    seg = [ball.mul(x, _identity(ball)) for x in segment]
    norms = [ball.norm(x) for x in seg]
    if any(b - a != 1 for a, b in zip(norms, norms[1:])):
        return ClaimVerdict("hypotheses-not-satisfied", "segment not radial")
    for x, y in zip(seg, seg[1:]):
        if ball.norm(ball.mul(ball.inv(x), y)) != 1:
            return ClaimVerdict("hypotheses-not-satisfied", "not a geodesic path")
    return _claim(ball, coloring.value, g, seg)


def _claim(group, color, g, seg) -> ClaimVerdict:
    """The color, displacement and norm tests of `radial_claim_check` on a
    radial geodesic `seg`; x is translated only as far as the colors hold."""
    k = len(seg)
    translated = []
    for x in seg:
        gx = group.mul(g, x)
        if color(x) != color(gx):
            return ClaimVerdict("hypotheses-not-satisfied", "colors not preserved")
        translated.append(gx)
    if not any(
        group.norm(group.mul(group.inv(x), gx)) * 2 < k for x, gx in zip(seg, translated)
    ):
        return ClaimVerdict("hypotheses-not-satisfied", "displacement never below k/2")
    for i, (x, gx) in enumerate(zip(seg, translated)):
        if group.norm(gx) != group.norm(x):
            return ClaimVerdict("fail", i)
    return ClaimVerdict("pass")


@dataclass
class ClaimScan:
    segments: int
    checked: int
    hypotheses_met: int
    failures: list


def radial_claim_scan(ball, coloring, max_g_norm: int, min_len: int) -> ClaimScan:
    """Exhaustive radial_claim_check over all radial segments with at least
    `min_len` vertices and all g of norm <= max_g_norm in the ball.

    The segments are the paths that climb the ball's edges one norm at a
    time, so each is a radial geodesic by construction and only the tests
    of `_claim` run on it.  Products, inverses, norms and colors are
    memoized for the scan, as segments share their points.
    """
    group = SimpleNamespace(mul=cache(ball.mul), inv=cache(ball.inv), norm=cache(ball.norm))
    color = cache(coloring.value)
    n, norms, nbr = ball.system.rank, ball.norms, ball.nbr
    gs = [w for w in ball.members() if ball.norm(w) <= max_g_norm]
    segments = 0
    checked = 0
    hypotheses_met = 0
    failures = []
    stack = [(i, [i]) for i in range(len(ball.words))]
    while stack:
        i, path = stack.pop()
        for j in nbr[i * n : i * n + n]:
            if j >= 0 and norms[j] == norms[i] + 1:
                stack.append((j, path + [j]))
        if len(path) < min_len:
            continue
        segments += 1
        words = [ball.words[p] for p in path]
        for g in gs:
            checked += 1
            verdict = _claim(group, color, g, words)
            if verdict.status == "hypotheses-not-satisfied":
                continue
            hypotheses_met += 1
            if verdict.status == "fail":
                failures.append((g, words, verdict.detail))
    return ClaimScan(segments, checked, hypotheses_met, failures)


def _cosets(group, reps, membership):
    """(x, i, x y_i^{-1}) for each member x, where x lies in H y_i.

    Raises ValidationError unless the reps start at the identity and put
    every member in exactly one coset.
    """
    if not reps or reps[0] != _identity(group):
        raise ValidationError("first coset representative must be the identity")
    inv_reps = [group.inv(y) for y in reps]
    cosets = []
    for x in group.members():
        products = (group.mul(x, yinv) for yinv in inv_reps)
        hits = [(i, h) for i, h in enumerate(products) if membership(h)]
        if len(hits) != 1:
            raise ValidationError(
                f"coset reps do not partition the ball: element {x} lies in "
                f"{len(hits)} cosets"
            )
        cosets.append((x, *hits[0]))
    return cosets


def transfer_to_subgroup(group, coloring: GroupColoring, reps, membership) -> GroupColoring:
    """Tuple-color the subgroup: psi(x) = (phi(x y_1), ..., phi(x y_n))."""
    assignment = {}
    for x, i, _h in _cosets(group, reps, membership):
        if i != 0:
            continue
        try:
            assignment[x] = tuple(coloring.value(group.mul(x, y)) for y in reps)
        except OutOfBallError:
            continue  # translate leaves the carrier: boundary element
    palette = sorted(set(assignment.values()))
    return GroupColoring(group, palette, assignment)


def transfer_from_subgroup(group, sub_coloring: GroupColoring, reps, membership) -> GroupColoring:
    """Color the group: phi(x) = (psi(y_i^{-1} x), i) for x in H y_i."""
    assignment = {}
    for x, i, h in _cosets(group, reps, membership):
        try:
            assignment[x] = (sub_coloring.value(h), i + 1)
        except OutOfBallError:
            continue
    palette = sorted(set(assignment.values()))
    return GroupColoring(group, palette, assignment)


def product_coloring(group, tree_colorings, orbit_maps) -> GroupColoring:
    """Color g by the tuple of tree colors at its orbit points.

    `tree_colorings[i]` maps vertices of tree i to 9 colors and
    `orbit_maps[i]` sends a group element to its orbit point there, so the
    palette has nine colors per tree.
    """
    if len(tree_colorings) != len(orbit_maps):
        raise ValidationError("one orbit map per tree coloring required")
    assignment = {}
    for g in group.members():
        colors = []
        for coloring, orbit in zip(tree_colorings, orbit_maps):
            v = orbit(g)
            if v not in coloring:
                raise OutOfBallError(f"orbit point {v} outside the enumerated tree")
            colors.append(coloring[v])
        assignment[g] = tuple(colors)
    palette = sorted(set(assignment.values()))
    return GroupColoring(group, palette, assignment)


def pair_witness(group, coloring: GroupColoring, g, h, rho: int):
    """Search the rho-window around h for x with phi(g^{-1} x) != phi(x).

    The window is scanned by increasing distance from h (ShortLex within a
    distance), so reports are reproducible.  Returns the witness x or None.
    """
    window = [u for u in group.members() if group.norm(u) <= rho]
    return _witness(group, coloring, group.inv(g), h, window)


# -- coxeter ----------------------------------------------------------------------


def radial_segment(ball: Ball, g) -> list[tuple[int, ...]]:
    """The prefix path of g's normal form: a geodesic from e to g along
    which norms strictly increase."""
    nf = ball.system.normal_form(g)
    if ball.find(nf) < 0:
        raise OutOfBallError(f"{nf} not in the enumerated ball")
    return [nf[:i] for i in range(len(nf) + 1)]


@dataclass
class DisplacementVerdict:
    """Result of the bounded-displacement search for powers of `a`.

    `exponent` is the least n such that every ball element g sees a norm
    change within n steps along powers of a; when some g never does within
    n_max, `witnesses` lists those g and exponent is None.  `order_of_a`
    reports a detected finite order (the search is meaningful only for
    infinite-order a, so this is surfaced rather than asserted away).
    """

    exponent: int | None
    witnesses: list
    order_of_a: int | None = None
    n_max: int = 0


def displacement_exponent(group, a, members=None, n_max: int = 10) -> DisplacementVerdict:
    """Search for the least n with: every g has some k <= n, |g a^k| != |g|.

    `group` is a Ball or a lattice ball (the shared group-ops protocol);
    `members` defaults to everything enumerated in `group`.
    """
    ident = _identity(group)
    if a == ident:
        raise ValidationError("a must differ from the identity")
    powers = [ident]
    order = None
    for _ in range(n_max):
        powers.append(group.mul(powers[-1], a))
        if powers[-1] == ident and order is None:
            order = len(powers) - 1
    members = list(group.members() if members is None else members)
    witnesses = []
    worst = 0
    for g in members:
        base = group.norm(g)
        for k in range(1, n_max + 1):
            if group.norm(group.mul(g, powers[k])) != base:
                worst = max(worst, k)
                break
        else:
            witnesses.append(g)
    if witnesses:
        return DisplacementVerdict(None, witnesses, order, n_max)
    return DisplacementVerdict(worst, [], order, n_max)


# -- sequences --------------------------------------------------------------------


MORSE_THUE = "morse_thue"
SQUARES = "squares"


def is_perfect_square(x: int) -> bool:
    """True iff |x| is k*k for some integer k >= 0."""
    x = abs(x)
    r = isqrt(x)
    return r * r == x


def z_color(kind: str, x: int) -> int:
    """Value of the integer-line coloring at x (both kinds depend on |x| only)."""
    if kind == MORSE_THUE:
        return _term(abs(x))
    if kind == SQUARES:
        return 1 if is_perfect_square(x) else 0
    raise ValidationError(f"unknown coloring kind {kind!r}")


def z_witness(n: int, m: int):
    """Find q with |q - m| <= 3|n| and differing Thue-Morse colors at q, q + n.

    Scans outward from m (at equal distance the smaller q is tried first);
    returns q, or None if the whole window fails, which falsifies the
    bounded-displacement property at this instance.
    """
    if n == 0:
        raise ValidationError("n must be nonzero")
    bound = 3 * abs(n)
    for d in range(bound + 1):
        for q in ((m - d, m + d) if d else (m,)):
            if z_color(MORSE_THUE, q) != z_color(MORSE_THUE, q + n):
                return q
    return None


def squares_limit_defect(a: int, rho: int) -> int:
    """Least m >= 1 whose square sits in an otherwise square-free window.

    Returns the least m such that every x in [-rho-|a|, rho+|a|] except
    x = 0 has non-square m*m + x: around m*m the squares coloring looks
    like a window of zeros, so translating by squares drives the coloring
    toward a fixed pattern regardless of the displacement a.
    """
    if a == 0:
        raise ValidationError("a must be nonzero")
    if rho < 0:
        raise ValidationError("rho must be nonnegative")
    width = rho + abs(a)
    m = 1
    while True:
        c = m * m
        if all(not is_perfect_square(c + x) for x in range(-width, width + 1) if x):
            return m
        m += 1


# -- hyperbolic -------------------------------------------------------------------


BASEPOINT = (0.0, 0.0, 1.0)


def to_klein(p) -> tuple[float, float]:
    return (p[0] / p[2], p[1] / p[2])


def segments_cross(a, b, c, d) -> bool:
    """The pairwise test coxtile.hyperbolic.is_simple once made for each two
    sides: c and d on opposite sides of the line ab, and a and b of cd."""
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    return orient(a, b, c) * orient(a, b, d) < 0 and orient(c, d, a) * orient(c, d, b) < 0


def is_simple_pairwise(vertices) -> bool:
    """is_simple as it once read: every two sides that share no vertex, in the
    Klein disk, by index arithmetic."""
    pts = [to_klein(v) for v in vertices]
    p = len(pts)
    for i in range(p):
        for j in range(i + 1, p):
            if j in (i, (i + 1) % p) or (j + 1) % p == i:
                continue
            if segments_cross(pts[i], pts[(i + 1) % p], pts[j], pts[(j + 1) % p]):
                return False
    return True


def on_hyperboloid(p, tol=1e-8) -> bool:
    return abs(lorentz_dot(p, p) + 1.0) < tol and p[2] > 0


def preserves_lorentz_form(M, tol=1e-9) -> bool:
    # M^T J M holds the Lorentz products of M's columns, J those of the unit vectors
    cols = tuple(zip(*M))
    return M[2][2] > 0 and all(
        abs(lorentz_dot(a, b) - lorentz_dot(e, f)) < tol
        for a, e in zip(cols, _EYE) for b, f in zip(cols, _EYE)
    )


def convexity_check(vertices, tol=1e-12) -> bool:
    """Hyperbolic convexity via the Klein disk, where geodesics are chords.

    Raises GeometryError when the polygon is not simple.
    """
    if not is_simple(vertices):
        raise GeometryError("polygon is not simple")
    pts = [to_klein(v) for v in vertices]
    p = len(pts)
    signs = set()
    for i in range(p):
        a, b, c = pts[i], pts[(i + 1) % p], pts[(i + 2) % p]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if abs(cross) > tol:
            signs.add(cross > 0)
    return len(signs) <= 1


def _signed_area(pts) -> float:
    p = len(pts)
    return 0.5 * sum(
        pts[i][0] * pts[(i + 1) % p][1] - pts[(i + 1) % p][0] * pts[i][1] for i in range(p)
    )


def _ccw(pts):
    return pts if _signed_area(pts) >= 0 else list(reversed(pts))


def _klein_contains(pts, q, margin=1e-9) -> bool:
    # convex counterclockwise polygon in the Klein disk
    p = len(pts)
    for i in range(p):
        a, b = pts[i], pts[(i + 1) % p]
        cross = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
        if cross < margin:
            return False
    return True


def sample_overlap_fraction(tiles, samples_per_tile=40, seed=0, margin=1e-6) -> float:
    """Largest sampled interior-overlap fraction over nearby tile pairs.

    Reflected placements come out clockwise in the Klein disk, so rings are
    reoriented before the half-plane containment test.
    """
    rng = random.Random(seed)
    centers = [center_of(t.vertices) for t in tiles]
    radius = max(hyp_dist(tiles[0].vertices[k], centers[0]) for k in range(len(tiles[0].vertices)))
    klein = [_ccw([to_klein(v) for v in t.vertices]) for t in tiles]
    samples = []
    for t, ct in zip(tiles, centers):
        pts = [to_klein(v) for v in t.vertices]
        c = to_klein(ct)
        sams = []
        for _ in range(samples_per_tile):
            i = rng.randrange(len(pts))
            u, v = rng.random(), rng.random()
            if u + v > 1:
                u, v = 1 - u, 1 - v
            a, b = pts[i], pts[(i + 1) % len(pts)]
            sams.append(
                (
                    c[0] + u * (a[0] - c[0]) + v * (b[0] - c[0]),
                    c[1] + u * (a[1] - c[1]) + v * (b[1] - c[1]),
                )
            )
        samples.append(sams)
    worst = 0.0
    for i in range(len(tiles)):
        for j in range(i + 1, len(tiles)):
            if hyp_dist(centers[i], centers[j]) > 2.05 * radius:
                continue
            hits = sum(1 for q in samples[i] if _klein_contains(klein[j], q, margin))
            hits += sum(1 for q in samples[j] if _klein_contains(klein[i], q, margin))
            worst = max(worst, hits / (2.0 * samples_per_tile))
    return worst


# -- tiles ------------------------------------------------------------------------


def tile_of_faces(faces) -> tuple:
    """Canonical tile: the face multiset as a sorted tuple."""
    return tuple(sorted(faces, key=_face_key))


def opposite(face):
    color, sign = face
    return (color, -sign)


def verify_unbalanced_witness(alphabet: TileAlphabet, w) -> tuple[list, bool]:
    """Tile sums under w and whether they are all positive.

    Accepts a WeightFunction or a raw face->value map, which must then be
    antisymmetric.
    """
    if not isinstance(w, WeightFunction):
        for face, val in w.items():
            other = w.get(opposite(face))
            if other is None or Fraction(other) != -Fraction(val):
                raise ValidationError(f"weights violate antisymmetry at {face}")
        w = WeightFunction({color: Fraction(val) for (color, sign), val in w.items() if sign == 1})
    sums = [w.tile_sum(t) for t in alphabet.tiles]
    return sums, all(s > 0 for s in sums)
