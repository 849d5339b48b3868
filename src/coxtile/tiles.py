"""Tile alphabets from wall colorings and orientations; exact balance tests.

A tile records the multiset of (color, sign) face labels a chamber sees.
The sign a chamber sees on a face is the wall's orientation times the side
the chamber is on: with the canonical orientation the base chamber's side
is positive, and a chamber g is on the far side of its s-face exactly when
s is a descent of g (|gs| < |g|).  The opposition map flips signs, weight functions are
antisymmetric, and the classifier decides, in exact rational arithmetic,
whether some weight makes every tile sum positive (unbalanced), whether a
nontrivial weight keeps every sum nonnegative (semibalanced), or whether
the nonnegativity cone is {0} (strictly balanced).

Every wall carries a label: build_alphabet refuses a wall without a color
or with a sign other than +1 or -1.  A wall set keeps the alphabet of
build_alphabet's last full pass, with a private copy of the wall colors
and, per wall, the label its base side sees, which holds the wall's color
and sign.  A later call relabels the kept alphabet when its wall colors
equal the kept ones, by value, and its orientation is the kept one times
one factor, +1 or -1, per color, checked on every wall.
A color's two labels, (c, -1) and (c, +1), are neighbours in `_face_key`
order, and a factor of -1 swaps them: each kept tile, its labels swapped,
re-sorted and the tiles re-numbered, is the tile a full pass would find,
and each chamber keeps its tile.  The rebases of one resolution
(rebased_alternating) are such calls.  Every other call makes a full pass,
which replaces the kept alphabet.
"""

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import StructureError, ValidationError
from .ratlp import solve_lp
from .walls import WallSet, class_walk


def _face_key(face):
    color, sign = face
    return (str(color), sign)


# -- orientations --------------------------------------------------------------


def orient_all_plus(wallset: WallSet) -> list:
    """Every wall keeps its canonical orientation (base chamber on the left)."""
    return [1] * len(wallset)


def orient_alternating(wallset: WallSet, class_wids: dict, flips: dict | None = None) -> list:
    """Sign (-1)^level per wall, the level read off the classes' walk (see
    walls.class_walk), negated on every class that `flips` marks, as a list
    indexed by wall id; a wall in no class gets None, which build_alphabet
    refuses.

    Any flip pattern yields an "allowed" orientation; the default pattern
    starts -, +, -, ... outward from the base chamber.  Raises StructureError
    for the first class, in dict order, that the Coxeter matrix cannot
    certify disjoint.
    """
    return _alternate(wallset, class_wids, class_walk(wallset, class_wids.values()).level, flips or {})


def rebased_alternating(wallset: WallSet, class_wids: dict, chamber: int) -> list:
    """The alternating orientation as constructed from another base chamber,
    expressed in the canonical frame of the original base, as a list indexed
    by wall id; a wall in no class gets None, which build_alphabet refuses.

    Re-peeling from `chamber` and moving the "left side" reference back to
    the original base flip a whole disjoint class at once, by the parity of
    the class walls separating the two chambers.  Those are the class's
    faces on the chamber's ShortLex parent chain (WallSet.sep reads them off
    Ball.parent_faces, which checks the chamber id), so a rebase is
    orient_alternating on the kept levels, with the parity of each class's
    faces there as its flips.
    """
    walk = class_walk(wallset, class_wids.values())
    crossed = [walk.klass[w] for w in wallset.sep[chamber]]  # the class number of each wall crossed
    flips = {cls: crossed.count(walk.klass[wids[0]]) % 2 if wids else 0 for cls, wids in class_wids.items()}
    return _alternate(wallset, class_wids, walk.level, flips)


def _alternate(wallset: WallSet, class_wids: dict, level: list, flips: dict) -> list:
    """flip * (-1)^level for the walls of each class, with `level` indexed by wall id."""
    orientation = [None] * len(wallset)
    for cls, wids in class_wids.items():
        f = -1 if flips.get(cls) else 1
        for wid in wids:
            orientation[wid] = f * (-1) ** level[wid]
    return orientation


# -- alphabets -------------------------------------------------------------------


@dataclass
class TileAlphabet:
    """Deduplicated tiles observed on the interior chambers of a ball."""

    tiles: list
    tile_ids: dict
    chamber_tile: dict  # chamber id -> tile id
    excluded: list  # always []: build_alphabet labels every wall, so no chamber is left out
    radius: int

    def __len__(self):
        return len(self.tiles)

    def colors(self):
        cs = {face[0] for t in self.tiles for face in t}
        return sorted(cs, key=str)


def _label_tables(wallset: WallSet, wall_colors: list, orientation: list):
    """Every oriented face label, numbered once in `_face_key` order, and per
    wall the number of the label seen from the base side and from beyond.

    Every sign is +1 or -1, so the labels come in pairs, (c, -1) then
    (c, +1), one pair per color.  Raises ValidationError when two labels
    share a key, since numbers could not then keep the order the string keys
    give.
    """
    count = len(wallset)
    walls_of = {}  # (color, sign seen from the base side) -> wall ids
    for wid, (color, sign) in enumerate(zip(wall_colors, orientation)):
        walls_of.setdefault((color, sign), []).append(wid)
    labels = sorted({f for c, s in walls_of for f in ((c, s), (c, -s))}, key=_face_key)
    for f, g in zip(labels, labels[1:]):
        if _face_key(f) == _face_key(g):
            raise ValidationError(f"face labels {f!r} and {g!r} print alike")
    number = {face: i for i, face in enumerate(labels)}
    near, far = [-1] * count, [-1] * count
    for (color, sign), wids in walls_of.items():
        inside, beyond = number[color, sign], number[color, -sign]
        for wid in wids:
            near[wid] = inside
            far[wid] = beyond
    return labels, near, far


def build_alphabet(wallset: WallSet, wall_colors: list, orientation: list) -> TileAlphabet:
    """Label every interior chamber with its (color, sign) face multiset.

    `wall_colors` and `orientation` are lists indexed by wall id, one entry
    per wall: every wall has a color, not None, and a sign, +1 or -1.
    ValidationError is raised when either list has another length, or names
    the first wall without a color or with another sign.  So every interior
    chamber gets a tile, and `excluded` is always empty.  A chamber is
    interior when all its generator edges lie in the ball.  The side
    comes from a descent, read off the wall set's cached, orientation-free
    face rows (WallSet.face_rows): each face is 2 * wall + far, far when
    |gs| < |g| (Bjorner & Brenti, Combinatorics of Coxeter Groups, 1.4).
    Each oriented face label is numbered once, in `_face_key` order, so a
    call only maps every face to its label number, sorts each chamber's
    numbers into a tuple and turns the distinct tuples back into (color,
    sign) faces.  Every full pass is kept; a call that only negates whole
    colors of the wall set's kept alphabet relabels that alphabet instead
    (see the module docstring).
    """
    count = len(wallset)
    if len(wall_colors) != count or len(orientation) != count:
        raise ValidationError(
            f"{len(wall_colors)} wall colors and {len(orientation)} orientations "
            f"for {count} walls: both need one entry per wall"
        )
    if None in wall_colors or orientation.count(1) + orientation.count(-1) != count:  # scans in C
        wid = next(w for w, (c, s) in enumerate(zip(wall_colors, orientation))
                   if c is None or s not in (1, -1))
        raise ValidationError(f"wall {wid} has color {wall_colors[wid]!r} and sign {orientation[wid]!r}: "
                              "every wall needs a color and a sign +1 or -1")
    ball = wallset.ball
    kept = wallset._alphabet
    if kept is not None:
        factors = kept.factors(wall_colors, orientation)
        if factors is not None:
            return kept.relabel(factors, ball.radius)
    rank = ball.system.rank
    labels, near, far = _label_tables(wallset, wall_colors, orientation)
    interior, rows = wallset.face_rows
    number = [0] * (2 * len(near))  # face code 2 * wall + far -> label number
    number[0::2], number[1::2] = near, far
    slots = map(number.__getitem__, rows)  # zip below takes them `rank` at a time
    codes = list(map(tuple, map(sorted, zip(*[slots] * rank)))) if rank else [()] * len(interior)
    distinct = sorted(set(codes))
    code_ids = {code: i for i, code in enumerate(distinct)}
    tids = list(map(code_ids.__getitem__, codes))
    wallset._alphabet = _KeptAlphabet(
        list(wall_colors), labels, array("i", near), distinct, interior, array("i", tids)
    )
    return _alphabet(labels, distinct, dict(zip(interior, tids)), ball.radius)


def _alphabet(labels, distinct, chamber_tile, radius) -> TileAlphabet:
    """The alphabet whose tile i has the label numbers distinct[i]."""
    tiles = [tuple(labels[i] for i in code) for code in distinct]
    tile_ids = {t: i for i, t in enumerate(tiles)}
    return TileAlphabet(tiles, tile_ids, chamber_tile, [], radius)


@dataclass
class _KeptAlphabet:
    """The last full pass of build_alphabet over a wall set (WallSet._alphabet).
    Every wall has a label and every sign is +1 or -1, so labels 2p and
    2p + 1 are (c, -1) and (c, +1), and the label a wall's base side sees
    gives the wall's sign."""

    wall_colors: list  # a private copy of the pass's colors
    labels: list  # label number -> (color, sign), in `_face_key` order
    near: array  # wall id -> the number of the label its base side sees
    codes: list  # tile id -> its sorted label numbers
    interior: array  # the chambers labeled, in id order
    tids: array  # their tile ids

    @cached_property
    def witnesses(self) -> dict:
        """Label number -> a wall whose base side sees it."""
        return dict(zip(self.near, range(len(self.near))))

    def factors(self, wall_colors: list, orientation: list) -> list | None:
        """Color pair p -> the factor, +1 or -1, that turns the kept
        orientation into `orientation` on every wall of the pair's color;
        None when the colors differ from the kept ones or no such factor
        exists.

        The factor belongs to the color pair, the labels (c, -1) and (c, +1):
        one factor per label would pass the all-plus orientation after the
        alternating one, which negates some walls of each color and not
        others.  Every wall is checked."""
        if wall_colors != self.wall_colors:
            return None
        factors = [0] * (len(self.labels) // 2)
        for label, wid in self.witnesses.items():  # every color has a wall, so every pair a witness
            sign = orientation[wid]
            factors[label >> 1] = sign if label & 1 else -sign  # label 2p's kept sign is -1, 2p + 1's is +1
        signs = [f * s for f in factors for s in (-1, 1)]  # label number -> its walls' sign now
        if list(map(signs.__getitem__, self.near)) != orientation:
            return None
        return factors

    def relabel(self, factors: list, radius: int) -> TileAlphabet:
        """The kept alphabet with the two labels of every color pair of factor
        -1 swapped: the tiles a full pass finds for the negated orientation."""
        swap = [i ^ 1 if factors[i >> 1] < 0 else i for i in range(len(self.labels))]
        codes = [tuple(sorted(map(swap.__getitem__, code))) for code in self.codes]
        distinct = sorted(codes)  # a bijection of labels keeps distinct tiles distinct
        code_ids = {code: i for i, code in enumerate(distinct)}
        tile_map = list(map(code_ids.__getitem__, codes))  # kept tile id -> new tile id
        chamber_tile = dict(zip(self.interior, map(tile_map.__getitem__, self.tids)))
        return _alphabet(self.labels, distinct, chamber_tile, radius)


# -- weight functions and balance ---------------------------------------------------


@dataclass
class WeightFunction:
    """Antisymmetric by construction: value(color, -1) = -weights[color]."""

    weights: dict  # color -> Fraction

    def value(self, face) -> Fraction:
        color, sign = face
        return Fraction(sign) * Fraction(self.weights.get(color, 0))

    def tile_sum(self, tile) -> Fraction:
        return sum((self.value(f) for f in tile), Fraction(0))

    @property
    def nontrivial(self) -> bool:
        return any(v != 0 for v in self.weights.values())

    def integer_scaled(self) -> "WeightFunction":
        denom = lcm(*(Fraction(v).denominator for v in self.weights.values()))
        scaled = {c: Fraction(v) * denom for c, v in self.weights.items()}
        g = gcd(*map(int, scaled.values())) or 1  # 0 only when every weight is 0
        return WeightFunction({c: v / g for c, v in scaled.items()})


def _tile_vectors(alphabet: TileAlphabet):
    colors = alphabet.colors()
    cindex = {c: i for i, c in enumerate(colors)}
    vectors = []
    for t in alphabet.tiles:
        v = [0] * len(colors)
        for color, sign in t:
            v[cindex[color]] += sign
        vectors.append(v)
    return colors, vectors


@dataclass
class BalanceVerdict:
    verdict: str  # "unbalanced" | "semibalanced" | "strictly_balanced"
    witness: WeightFunction | None = None
    tile_sums: list = field(default_factory=list)


def _check_lp_status(res, which):
    # both LPs are feasible (w = 0) and boxed, so anything else is a solver fault
    if res.status != "optimal":
        raise StructureError(f"{which} LP returned {res.status!r}; it is feasible and bounded")


def classify_balance(alphabet: TileAlphabet) -> BalanceVerdict:
    """Exact-rational balance classification of a tile alphabet.

    unbalanced: some weight makes every tile sum positive (witness given,
    integer scaled).  strictly balanced: the only antisymmetric weight with
    all tile sums >= 0 is zero, decided by maximizing each coordinate in
    both directions over the cone boxed to [-1, 1].  semibalanced: the cone
    is nontrivial but no weight achieves all-positive sums (witness given).
    """
    if not alphabet.tiles:
        raise ValidationError(f"alphabet is empty: the radius-{alphabet.radius} ball has no interior chamber; "
                              "a radius of at least 1 gives e its tile")
    colors, vectors = _tile_vectors(alphabet)
    k = len(colors)
    # variables u, v with w = u - v: a tile's row [-vec | vec] times (u, v) is
    # minus its tile sum under w, so the row's constraint bounds the sum below
    tile_rows = [[-x for x in vec] + vec for vec in vectors]

    def boxed(extra):
        # the tile rows, extended by `extra`, with right-hand side 0, then a
        # unit box on every variable: b >= 0, as solve_lp needs, and bounded
        width = 2 * k + len(extra)
        A = [row + extra for row in tile_rows]
        A += [[int(i == j) for i in range(width)] for j in range(width)]
        return A, [0] * len(tile_rows) + [1] * width

    def witness_of(res):
        w = {c: res.x[i] - res.x[k + i] for i, c in enumerate(colors)}
        witness = WeightFunction(w).integer_scaled()
        return witness, [witness.tile_sum(t) for t in alphabet.tiles]

    # positivity: maximize t subject to tile sums >= t and u, v, t <= 1
    res = solve_lp([0] * (2 * k) + [1], *boxed([1]))
    _check_lp_status(res, "positivity")
    if res.objective > 0:
        witness, sums = witness_of(res)
        if not all(s > 0 for s in sums):
            raise StructureError("unbalanced witness has a tile sum <= 0")
        return BalanceVerdict("unbalanced", witness, sums)

    # cone probe: tile sums >= 0 and u, v <= 1; maximize +-w_c for every color
    A_cone, b_cone = boxed([])
    for i in range(k):
        for sign in (1, -1):
            cost = [0] * (2 * k)
            cost[i] = sign
            cost[k + i] = -sign
            res = solve_lp(cost, A_cone, b_cone)
            _check_lp_status(res, "cone")
            if res.objective > 0:
                witness, sums = witness_of(res)
                if not (witness.nontrivial and all(s >= 0 for s in sums)):
                    raise StructureError("semibalanced witness is zero or has a tile sum < 0")
                return BalanceVerdict("semibalanced", witness, sums)
    return BalanceVerdict("strictly_balanced")


def grid_oracle(alphabet: TileAlphabet, bound: int = 2) -> dict:
    """Brute force over integer weights with entries in [-bound, bound].

    Can confirm unbalance (some grid weight has all sums positive) and can
    refute strict balance (some nonzero grid weight has all sums >= 0); it
    cannot certify either negation beyond the grid.
    """
    from itertools import product

    colors, vectors = _tile_vectors(alphabet)
    found_positive = None
    found_nonneg = None
    for w in product(range(-bound, bound + 1), repeat=len(colors)):
        if all(x == 0 for x in w):
            continue
        sums = [sum(a * b for a, b in zip(vec, w)) for vec in vectors]
        if found_positive is None and all(s > 0 for s in sums):
            found_positive = dict(zip(colors, w))
        if found_nonneg is None and all(s >= 0 for s in sums):
            found_nonneg = dict(zip(colors, w))
        if found_positive and found_nonneg:
            break
    return {
        "confirms_unbalanced": found_positive is not None,
        "refutes_strict_balance": found_nonneg is not None,
        "positive_witness": found_positive,
        "nonnegative_witness": found_nonneg,
    }
