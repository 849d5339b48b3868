"""Norm colorings of group balls, and finite-window aperiodicity checks.

The central construction colors an element by the pair (t(|g|), |g| mod 3)
where t is the ternary square-free sequence: along any radial geodesic the
second coordinate forces unit norm steps and the first coordinate embeds a
square-free word.  The rigidity check that exploits this, and the tree,
transfer and product colorings, are in tests/paper_checks.py.

Limit aperiodicity is an infinite-quantifier property; everything here is
a finite proxy whose scale parameters travel with the verdict: the g range,
the h range and the window.  The ball searched must hold each of them, so
the verdict depends on nothing else.
"""

from dataclasses import dataclass, field

from .errors import OutOfBallError, WindowError
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


def norm_color(n: int):
    return (ternary_term(n), n % 3)


NORM_PALETTE = [(i, j) for i in range(3) for j in range(3)]


def norm_coloring(ball) -> GroupColoring:
    """Color g by (t(|g|), |g| mod 3); nine colors.  The rule alone: every
    color is read off the norm, so no member's color is stored."""
    return GroupColoring(ball, list(NORM_PALETTE), {}, by_norm=norm_color)


# -- aperiodicity reports ---------------------------------------------------------


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
    Raises WindowError, before any product, when a range or the window is
    negative or exceeds the radius of `group`, whose members are what the
    search enumerates: a smaller ball would cut it short."""
    for name, value in (("g range", g_range), ("h range", h_range), ("window", window)):
        if value < 0:
            raise WindowError(f"{name} must be nonnegative, got {value}")
        if value > group.radius:
            raise WindowError(f"{name} {value} exceeds the radius-{group.radius} ball")
    report = AperiodicityReport(g_range, h_range, window)
    win = [u for u in group.members() if group.norm(u) <= window]
    gs = [g for g in group.members() if 0 < group.norm(g) <= g_range]
    hs = [h for h in group.members() if group.norm(h) <= h_range]
    for g in gs:
        ginv = group.inv(g)
        for h in hs:
            report.records[(g, h)] = _witness(group, coloring, ginv, h, win)
    return report
