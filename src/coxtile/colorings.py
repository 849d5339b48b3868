"""Colorings of group balls and trees, and finite-window aperiodicity checks.

The central construction colors an element by the pair (t(|g|), |g| mod 3)
where t is the ternary square-free sequence: along any radial geodesic the
second coordinate forces unit norm steps and the first coordinate embeds a
square-free word, which is what the rigidity check below exploits.

Limit aperiodicity is an infinite-quantifier property; everything here is
a finite proxy whose scale parameters travel with the verdict.
"""

from dataclasses import dataclass, field
from functools import cache
from types import SimpleNamespace

from .errors import OutOfBallError, ValidationError, WindowError
from .sequences import ternary_term


@dataclass
class GroupColoring:
    """A total coloring of an enumerated carrier, optionally norm-determined.

    `assignment` maps carrier keys to colors; when `by_norm` is set the
    coloring extends beyond the carrier through the norm formula, which is
    what lets window searches evaluate translates near the ball boundary.
    """

    carrier: object
    palette: list
    assignment: dict
    by_norm: object = None  # callable norm -> color, or None

    def value(self, key, norm=None):
        """The color of `key`.  A caller that already knows |key| passes it
        as `norm`, so the carrier need not compute it."""
        if key in self.assignment:
            return self.assignment[key]
        if self.by_norm is not None:
            return self.by_norm(self.carrier.norm(key) if norm is None else norm)
        raise OutOfBallError(f"coloring undefined at {key} and not norm-determined")

    def overridden(self, overrides: dict) -> "GroupColoring":
        new = dict(self.assignment)
        new.update(overrides)
        return GroupColoring(self.carrier, self.palette, new, self.by_norm)


def norm_color(n: int):
    return (ternary_term(n), n % 3)


NORM_PALETTE = [(i, j) for i in range(3) for j in range(3)]


def norm_coloring(ball) -> GroupColoring:
    """Color g by (t(|g|), |g| mod 3); nine colors.  The rule alone: every
    color is read off the norm, so no member's color is stored."""
    return GroupColoring(ball, list(NORM_PALETTE), {}, by_norm=norm_color)


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


# -- the radial-segment rigidity check ----------------------------------------


@dataclass
class ClaimVerdict:
    status: str  # "pass" | "fail" | "hypotheses-not-satisfied"
    detail: object = None


def radial_claim_check(ball, coloring: GroupColoring, g, segment) -> ClaimVerdict:
    """Check the norm-rigidity claim on one radial segment.

    Hypotheses: the segment is radial, g preserves its colors pointwise,
    and g displaces some segment point by less than half the vertex count.
    Conclusion checked: g preserves the norms of all segment points.
    """
    seg = [ball.mul(x, ball.identity) for x in segment]
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


# -- finite index transfer -----------------------------------------------------


def _cosets(group, reps, membership):
    """(x, i, x y_i^{-1}) for each member x, where x lies in H y_i.

    Raises ValidationError unless the reps start at the identity and put
    every member in exactly one coset.
    """
    if not reps or reps[0] != group.identity:
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


# -- product colorings ----------------------------------------------------------


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


# -- aperiodicity reports ---------------------------------------------------------


def pair_witness(group, coloring: GroupColoring, g, h, rho: int):
    """Search the rho-window around h for x with phi(g^{-1} x) != phi(x).

    The window is scanned by increasing distance from h (ShortLex within a
    distance), so reports are reproducible.  Returns the witness x or None.
    """
    window = [u for u in group.members() if group.norm(u) <= rho]
    return _witness(group, coloring, group.inv(g), h, window)


def _witness(group, coloring: GroupColoring, ginv, h, window):
    """First x = h u, u in the window, with phi(ginv x) != phi(x), or None.
    Each product carries its norm, so a norm coloring never recomputes it."""
    for u in window:
        x, x_norm = group.mul_norm(h, u)
        if coloring.value(*group.mul_norm(ginv, x)) != coloring.value(x, x_norm):
            return x
    return None


@dataclass
class AperiodicityReport:
    """Per-(g, h) witnesses that the coloring is not g-periodic near h.

    An unwitnessed pair is evidence against limit aperiodicity at this
    scale; the scale parameters are part of the record.
    """

    g_range: int
    h_range: int
    window: int
    records: dict = field(default_factory=dict)

    @property
    def unwitnessed(self):
        return [pair for pair, x in self.records.items() if x is None]

    @property
    def all_witnessed(self) -> bool:
        return not self.unwitnessed


def aperiodicity_report(
    group, coloring: GroupColoring, g_range: int, h_range: int, window: int
) -> AperiodicityReport:
    """Witness search over all g != e with |g| <= g_range and |h| <= h_range.
    Raises WindowError when a range or the window is negative."""
    for name, value in (("g range", g_range), ("h range", h_range), ("window", window)):
        if value < 0:
            raise WindowError(f"{name} must be nonnegative, got {value}")
    report = AperiodicityReport(g_range, h_range, window)
    win = [u for u in group.members() if group.norm(u) <= window]
    gs = [g for g in group.members() if 0 < group.norm(g) <= g_range]
    hs = [h for h in group.members() if group.norm(h) <= h_range]
    for g in gs:
        ginv = group.inv(g)
        for h in hs:
            report.records[(g, h)] = _witness(group, coloring, ginv, h, win)
    return report
