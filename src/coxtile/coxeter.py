"""Coxeter systems, word normal forms, and Cayley-ball enumeration.

Elements are represented by ShortLex-least geodesic words in generator
indices.  Every system gets one engine, DescentEngine, which reads the
normal form off the signs of the dual vector g f0, in integers when every
order is 2, 3 or infinity (right-angled systems among them) and else in
fixed point with proven error bounds, at doubled precision until the bounds
decide.  Nothing is identified by floating point.

A ball needs no element keys at all.  Its edges come from the dihedral coset
lemma (Bjorner and Brenti, Combinatorics of Coxeter Groups, 2.4): an element
with two descents s and t is the top of a coset u<s, t> of a finite dihedral
group, so its second descent is found by walking around that coset in the
edges already enumerated.  One code path serves every Coxeter matrix, and
its cost does not depend on the ring the roots live in.  Walls come from the
same coset walks (coxtile.walls.enumerate_walls), so no root is ever
computed.

A Ball stores its ShortLex tree rather than a word per element: the norm,
the neighbours and the last letter of each element's normal form, so an
element's ShortLex parent is one lookup in the neighbour table.  Its words
and the word -> id index are built from that tree on first use; sphere
sizes, walls, separation and element ids (Ball.find) never need them.
"""

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from .errors import OutOfBallError, SizeLimitError, StructureError, ValidationError

DEFAULT_BALL_CAP = 200_000


def _cap_from_env():
    raw = os.environ.get("COXTILE_BALL_CAP")
    if not raw:
        return DEFAULT_BALL_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"COXTILE_BALL_CAP must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class CoxeterSystem:
    """A Coxeter presentation: named involutions s_i with (s_i s_j)^{m_ij} = 1.

    The matrix entry 0 encodes an infinite order product (no relation).
    """

    generators: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.generators)
        if len(set(self.generators)) != n:
            raise ValidationError("generator names must be distinct")
        for name in self.generators:  # spelled words split at "." and ",", and "e" is the identity
            if name in ("", "e") or "." in name or "," in name:
                raise ValidationError(f"generator name {name!r} makes spelled words ambiguous: "
                                      "a name is nonempty, not \"e\", and holds no \".\" or \",\"")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValidationError("matrix must be square of rank = #generators")
        for i in range(n):
            if self.matrix[i][i] != 1:
                raise ValidationError(f"diagonal entry m[{i}][{i}] must be 1")
            for j in range(n):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise ValidationError(f"matrix asymmetric at m[{i}][{j}]")
                if i != j and self.matrix[i][j] == 1:
                    raise ValidationError(f"off-diagonal m[{i}][{j}] cannot be 1")
                if self.matrix[i][j] < 0:
                    raise ValidationError(f"negative entry m[{i}][{j}]")

    @property
    def rank(self) -> int:
        return len(self.generators)

    def m(self, i: int, j: int) -> int:
        return self.matrix[i][j]

    @cached_property
    def _descents(self) -> "DescentEngine":
        return DescentEngine(self)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_dict(cls, data) -> "CoxeterSystem":
        try:
            gens = tuple(str(g) for g in data["generators"])
            matrix = tuple(tuple(int(x) for x in row) for row in data["matrix"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"bad system description: {exc}") from exc
        return cls(gens, matrix)

    @classmethod
    def from_json(cls, text: str | bytes) -> "CoxeterSystem":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValidationError(f"bad system JSON: {exc}") from None
        return cls.from_dict(data)

    def to_dict(self):
        return {"generators": list(self.generators), "matrix": [list(r) for r in self.matrix]}

    @classmethod
    def dihedral(cls, m: int) -> "CoxeterSystem":
        return cls(("s", "t"), ((1, m), (m, 1)))

    @classmethod
    def infinite_dihedral(cls) -> "CoxeterSystem":
        return cls.dihedral(0)

    @classmethod
    def right_angled_polygon(cls, p: int) -> "CoxeterSystem":
        """Reflection group of a right-angled p-gon: cycle of p generators,
        adjacent pairs commute, all other products have infinite order."""
        if p < 3:
            raise ValidationError("polygon needs at least 3 sides")
        rows = []
        for i in range(p):
            row = []
            for j in range(p):
                if i == j:
                    row.append(1)
                elif (i - j) % p in (1, p - 1):
                    row.append(2)
                else:
                    row.append(0)
            rows.append(tuple(row))
        return cls(tuple(f"s{i}" for i in range(p)), tuple(rows))

    # -- word operations --------------------------------------------------

    def spell(self, word) -> str:
        """The word in generator names joined by dots, "e" when empty.  Names
        are nonempty, not "e" and free of "." and ",", so the spelling is
        one-to-one and cli._parse_word reads it back."""
        return ".".join(map(self.generators.__getitem__, word)) if word else "e"

    def _letters(self, word) -> tuple[int, ...]:
        """`word` as a tuple, after checking that each letter is a generator index."""
        word = tuple(word)
        for s in word:
            if not 0 <= s < self.rank:
                raise ValidationError(f"letter {s} is not a generator index")
        return word

    def normal_form(self, word) -> tuple[int, ...]:
        """ShortLex-least geodesic word for the element spelled by `word`."""
        return self._descents.normal_form(self._letters(word))

    def norm(self, word) -> int:
        return len(self.normal_form(word))

    def mul(self, u, v) -> tuple[int, ...]:
        """Product of two elements given by words, in normal form."""
        return self.normal_form(tuple(u) + tuple(v))

    def inv(self, word) -> tuple[int, ...]:
        """Inverse (generators are involutions, so reverse and renormalize)."""
        return self.normal_form(tuple(reversed(tuple(word))))


def load_system(text: str) -> CoxeterSystem:
    """Build a validated system from JSON text (starting with "{") or the
    path of a file holding it."""
    if text.lstrip().startswith("{"):
        return CoxeterSystem.from_json(text)
    with open(text, "rb") as fh:  # json detects the encoding; bad bytes raise ValueError
        return CoxeterSystem.from_json(fh.read())


# -- the descent engine ------------------------------------------------------


#: 2cos(pi/m) for the orders where it is an integer (0 encodes infinity)
_INTEGER_2COS = {0: 2, 1: -2, 2: 0, 3: 1}


def _fixed_pi(bits: int) -> int:
    """An integer within 8 * bits + 60 of 2^bits pi: Machin's formula, each
    atan(1/x) term off by under 2, and the series cut where its tail is under 1."""

    def atan_inv(x):
        total, power, k = 0, (1 << bits) // x, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k & 1 else term
            power //= x * x
            k += 1
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def _fixed_cos(m: int, prec: int) -> int:
    """An integer within 1 of 2^prec cos(pi/m), m >= 2: the Taylor series in
    fixed point with `guard` extra bits.  In units of 2^-bits the angle is off
    by under 4 * bits + 31, its square by 3.2 times that plus 1 and each floor
    by under 1, so the sum is off by under 24 * bits + 200 < 2^(guard - 1)."""
    guard = 32 + prec.bit_length()
    bits = prec + guard
    angle = _fixed_pi(bits) // m
    square = angle * angle >> bits
    total, term, k = 0, 1 << bits, 0
    while term:
        total += -term if k & 1 else term
        k += 1
        term = (term * square >> bits) // ((2 * k - 1) * (2 * k))
    return (total + (1 << (guard - 1))) >> guard


class DescentEngine:
    """ShortLex normal forms from the signs of the dual vector g f0.

    Coordinate t of g f0 (f0(alpha_s) = 1 on every simple root) is the
    coefficient sum of the root g^-1 alpha_t, negative exactly when t is a
    left descent of g (Bjorner and Brenti, Combinatorics of Coxeter Groups,
    4.2).  So fold the reversed word into f0, emit the least t whose
    coordinate is negative, step by t, and repeat until none is negative.

    A step by s negates f_s and adds c_st f_s to each other f_t, c_st =
    2cos(pi/m_st), 2 for infinity.  Integers F_t and one bound B per word
    keep |F_t - 2^prec f_t| <= B for every t.  With orders 2, 3 and infinity
    only, prec is 0 and B stays 0: exact.  Otherwise C_st = 2 _fixed_cos is
    within g = 2 of 2^prec c_st, so floor(C_st F_s / 2^prec) is off by at
    most ((|C_st| + 3g) B + g |F_s|) / 2^prec + 1.  So no coordinate's error
    grows by more than ((A_s B + g_s |F_s| + 2^prec - 1) >> prec) + loss_s,
    which B gains: A_s is the largest |C_st| + 3g of s's moves, and g_s = 2,
    loss_s = 1 when some c_st of s is not an integer, else both are 0.  A
    sign is used only once |F_t| > B proves it, else the word is redone at
    doubled precision.  The first attempt takes 64 + 2 |word| bits, as B
    grows with the word.  That ends: B does not grow with prec, while |F_t|
    is about 2^prec |f_t| and |f_t| >= 1, as a root
    beta = sum b_s alpha_s has 1 = <beta, beta> <= (sum |b_s|)^2, no
    |<alpha_s, alpha_t>| exceeding 1.
    """

    def __init__(self, system: CoxeterSystem):
        self.matrix = system.matrix
        self.exact = all(m in _INTEGER_2COS for row in self.matrix for m in row)
        self._moves = {}

    def moves(self, prec: int) -> list:
        """moves[s]: ([(t, C_st) for t != s with m_st != 2], A_s, g_s, loss_s)."""
        if prec not in self._moves:
            def row_moves(s, row):
                pairs = [(t, _INTEGER_2COS[m] << prec if m in _INTEGER_2COS else 2 * _fixed_cos(m, prec))
                         for t, m in enumerate(row) if t != s and m != 2]
                g = 2 * any(m not in _INTEGER_2COS for m in row)
                return pairs, max((abs(c) for _, c in pairs), default=0) + 3 * g, g, 1 if g else 0

            self._moves[prec] = [row_moves(s, row) for s, row in enumerate(self.matrix)]
        return self._moves[prec]

    def attempt(self, word, prec: int):
        """The normal form, or None when `prec` bits do not prove every sign."""
        moves = self.moves(prec)
        F, bound = [1 << prec] * len(self.matrix), 0
        for s in reversed(word):
            bound = _step(F, moves[s], s, prec, bound)
        out = []
        while True:
            for t, f in enumerate(F):
                if f > bound:
                    continue
                if f < -bound:
                    break
                return None
            else:
                return tuple(out)
            if len(out) == len(word):  # a proven descent shortens g: never reached
                raise StructureError(f"descents of {tuple(word)} outrun its length")
            out.append(t)
            bound = _step(F, moves[t], t, prec, bound)

    def normal_form(self, word) -> tuple[int, ...]:
        prec = 0 if self.exact else 64 + 2 * len(word)
        while (nf := self.attempt(word, prec)) is None:
            prec *= 2
        return nf


def _step(F: list, move, s: int, prec: int, bound: int) -> int:
    """Replace F by that of s.f in place; return the grown error bound (see DescentEngine)."""
    pairs, a, g, loss = move
    fs = F[s]
    for t, c in pairs:
        F[t] += c * fs >> prec
    F[s] = -fs
    return bound + ((a * bound + g * abs(fs) + (1 << prec) - 1) >> prec) + loss


# -- ball enumeration -------------------------------------------------------


class EdgeView(Mapping):
    """Read-only {(cid, s): id of cid * s} view of a ball's neighbour table.

    Only pairs with 0 <= cid < |ball|, 0 <= s < rank and cid * s in the ball
    are keys; any other pair raises KeyError, so a -1 or out-of-range index
    never wraps around the flat table.
    """

    __slots__ = ("_nbr", "_rank")

    def __init__(self, nbr: list[int], rank: int):
        self._nbr, self._rank = nbr, rank

    def __getitem__(self, key):
        try:
            cid, s = key
            if 0 <= s < self._rank and 0 <= cid:
                j = self._nbr[cid * self._rank + s]
                if j >= 0:
                    return j
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(key)

    def __iter__(self):
        return (divmod(i, self._rank) for i, j in enumerate(self._nbr) if j >= 0)

    def __len__(self) -> int:
        return len(self._nbr) - self._nbr.count(-1)


@dataclass
class Ball:
    """All elements of norm <= radius with their generator edges.

    Elements are ids 0, 1, ... in ShortLex order of their normal forms, e
    first.  The chamber graph is the flat neighbour table `nbr`:
    `nbr[i * rank + s]` is the id of element i * s, or -1 when that product
    lies outside the ball.  `edges` is a read-only {(i, s): id} view of the
    same table.  `norms[i]` is the length of element i.

    The ball keeps its ShortLex tree, not a word per element: `last[i]` is
    the final letter of i's normal form (-1 for e), so i's ShortLex parent,
    the element spelled by the word without that letter, is
    `nbr[i * rank + last[i]]`, of lower id and norm one less.  `words[i]`
    (the normal form of element i) and `index` (normal form -> id) are built
    from the tree in one pass each, the first time something reads them;
    the enumeration itself never spells a word.  `names` spells the first
    elements in generator names by one pass over the same tree, and `word`
    reads one normal form up the parent chain (`parent_faces`); neither
    builds `words`.
    """

    system: CoxeterSystem
    radius: int
    norms: list[int]
    nbr: list[int]
    last: list[int]
    sphere_sizes: list[int]

    @cached_property
    def words(self) -> list[tuple[int, ...]]:
        n, nbr, last = self.system.rank, self.nbr, self.last
        words = [()]
        for i in range(1, len(last)):
            s = last[i]
            words.append(words[nbr[i * n + s]] + (s,))
        return words

    @cached_property
    def index(self) -> dict:
        # i's id is the int object nbr already holds at its parent's row, so
        # the index allocates no new ints
        n, nbr, last, words = self.system.rank, self.nbr, self.last, self.words
        index = {(): 0}
        for i in range(1, len(last)):
            s = last[i]
            index[words[i]] = nbr[nbr[i * n + s] * n + s]
        return index

    def names(self, count: int | None = None) -> list[str]:
        """Elements 0..count-1 (all by default) spelled as `CoxeterSystem.spell`
        spells their normal forms, in id order: e is "e", a generator its name,
        and any other element its ShortLex parent's name, ".", and the name of
        its last letter.  No word tuple is built."""
        n, nbr, last, gens = self.system.rank, self.nbr, self.last, self.system.generators
        count = len(last) if count is None else count
        names = ["e"] if count else []
        for i in range(1, count):
            s = last[i]
            p = nbr[i * n + s]
            names.append(f"{names[p]}.{gens[s]}" if p else gens[s])
        return names

    def parent_faces(self, i: int):
        """The faces g * rank + last[g] of the edges from each g on element i's
        ShortLex parent chain to its parent, from i up to e (none for e): the
        edges of i's normal form, last letter first.

        This is the one chamber-id check: `word` and WallSet.sep, and so
        tiles.rebased_alternating, read the chain here, and an id outside
        0..len - 1 raises OutOfBallError when the chain is first read (-1
        would read the tables from their end)."""
        n, nbr, last = self.system.rank, self.nbr, self.last
        if not 0 <= i < len(last):
            raise OutOfBallError(f"no chamber {i}: the radius-{self.radius} ball has "
                                 f"chambers 0..{len(last) - 1}")
        while i:
            f = i * n + last[i]
            yield f
            i = nbr[f]

    def word(self, i: int) -> tuple[int, ...]:
        """The normal form of element i, read up its ShortLex parent chain."""
        n = self.system.rank
        return tuple(reversed([f % n for f in self.parent_faces(i)]))

    @cached_property
    def edges(self) -> EdgeView:
        return EdgeView(self.nbr, self.system.rank)

    def __len__(self) -> int:
        return len(self.norms)

    def find(self, word) -> int:
        """The id of the element spelled by `word`, or -1 outside the ball.
        Its normal form is a reduced word, so its prefixes lie in the ball
        exactly when it does, and a walk from e along it in `nbr` meets -1
        only outside."""
        n, nbr, i = self.system.rank, self.nbr, 0
        for s in self.system.normal_form(word):
            i = nbr[i * n + s]
            if i < 0:
                break
        return i

    def id_of(self, word) -> int:
        word = tuple(word)
        i = self.find(word)
        if i < 0:
            nf = self.system.normal_form(word)
            raise OutOfBallError(f"element {nf} is outside the radius-{self.radius} ball")
        return i

    # group-ops protocol of colorings and their window searches (keys are words)

    def members(self):
        return self.words

    def norm(self, word) -> int:
        # members are stored in normal form, so their norm is their length
        if isinstance(word, tuple) and word in self.index:
            return len(word)
        return self.system.norm(word)

    def mul(self, u, v):
        """u v in normal form.  A member u walks `nbr` along v's letters while
        the product stays in the ball; the rest of v is multiplied in from the
        last element reached, as `CoxeterSystem.mul` would."""
        system = self.system
        i = self.index.get(u) if isinstance(u, tuple) else None
        if i is None:
            return system.mul(u, v)
        v, n, nbr = tuple(v), system.rank, self.nbr
        for k, s in enumerate(v):
            j = nbr[i * n + s] if 0 <= s < n else -1
            if j < 0:
                break
            i = j
        else:
            return self.words[i]
        return system.mul(self.words[i], v[k:])

    def mul_norm(self, u, v):
        """(u v, |u v|): the product is a normal form, so its norm is its length."""
        uv = self.mul(u, v)
        return uv, len(uv)

    def inv(self, u):
        return self.system.inv(u)


def _coset_walks(system: CoxeterSystem) -> list:
    """For each s, the (t, m, letters) with t != s and m = m_st finite, m read
    from row s: the cosets <s, t> that close, each with `letters` = (t, s) * m,
    its alternating walk spelled once.  enumerate_ball and
    walls.enumerate_walls read the letters of their coset walks off it."""
    return [[(t, m, (t, s) * m) for t, m in enumerate(row) if t != s and m]
            for s, row in enumerate(system.matrix)]


def enumerate_ball(system: CoxeterSystem, radius: int, cap: int | None = None) -> Ball:
    """Breadth-first enumeration of the ball of the given radius that hashes
    no element keys: every edge is read off the neighbour table built so far.

    Each sphere is built from the one below in id order, s = 0..n-1, so ids
    follow ShortLex order and an element is first reached from its ShortLex
    parent by the last letter of its normal form, which is all `Ball.last`
    records.  Every down-edge of an element is set when it is created, so
    an unset `nbr[g * n + s]` at the frontier means g s is new.  The other
    descents t of h = g s come from the dihedral coset lemma (Bjorner and
    Brenti 2.4): t is a descent of h exactly when m = m_st is finite and g
    walks down m - 1 steps along t, s, t, ..., the norm dropping at each;
    h t is then reached from the bottom element u by m - 1 more steps of the
    same alternation, up the other side of the coset u<s, t>.  That walk
    must end one level below h, which is the ball's structural check.  Both
    walks read one letter table (_coset_walks): with letters = (t, s) * m,
    the way down is letters[:m - 1] and the way up letters[m - 1:2m - 2].
    The first step down, along t, reads g's own row, and most t are no
    descent of g, so most walks end at that one lookup.  An unset edge (-1)
    reads the norm of the last element made, the level, which no step down
    expects.  At most `cap` elements are made (COXTILE_BALL_CAP when cap is
    None); a cap below 1 is refused.
    """
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    cap = _cap_from_env() if cap is None else cap
    if cap < 1:  # every ball holds e
        raise ValidationError(f"ball cap must be at least 1, got {cap} (from cap= or COXTILE_BALL_CAP)")
    n = system.rank
    # each walk's way down past its first letter t, and its way up, sliced once per system
    walks = [[(t, letters[1:m - 1], letters[m - 1:2 * m - 2]) for t, m, letters in row]
             for row in _coset_walks(system)]
    blank = [-1] * n
    norms, nbr, last = [0], blank[:], [-1]
    sphere_sizes = [1]
    # the frontier holds the int objects that nbr holds, so nbr[h * n + s] = g
    # allocates no second int per element
    frontier = [0]
    for level in range(1, radius + 1):
        nxt = []
        for g in frontier:
            row = g * n
            for s in range(n):
                if nbr[row + s] >= 0:
                    continue
                h = len(norms)
                if h >= cap:
                    raise SizeLimitError(
                        f"ball cap {cap} exceeded at radius {level} of {radius}; "
                        f"radii 0..{level - 1} are complete with sphere sizes {sphere_sizes}; "
                        "raise COXTILE_BALL_CAP or lower the radius",
                        partial_count=h,
                    )
                last.append(s)
                norms.append(level)
                nxt.append(h)
                nbr += blank
                nbr[row + s] = h
                nbr[h * n + s] = g
                for t, down, up in walks[s]:
                    x = nbr[row + t]
                    if norms[x] != level - 2:  # t is no descent of g (-1 reads h's norm)
                        continue
                    k = level - 3
                    for a in down:  # on down from g t along s, t, s, ...
                        x = nbr[x * n + a]
                        if norms[x] != k:
                            break
                        k -= 1
                    else:
                        for a in up:  # and up the other side
                            x = nbr[x * n + a]
                            if x < 0:
                                break
                        if x < 0 or norms[x] != level - 1:
                            raise StructureError(
                                f"norm parity violated: the <{s}, {t}> coset walk from "
                                f"element {g} does not end at norm {level - 1}"
                            )
                        nbr[h * n + t] = x
                        nbr[x * n + t] = h
        sphere_sizes.append(len(nxt))
        frontier = nxt
        if not frontier:
            break
    while len(sphere_sizes) < radius + 1:
        sphere_sizes.append(0)
    return Ball(system, radius, norms, nbr, last, sphere_sizes)


# -- cocycles ----------------------------------------------------------------


def reflection_cocycle(system: CoxeterSystem, word):
    """Reflections crossed by the path spelled by `word`.

    Entry i is the normal form of prefix_{i-1} * s_i * prefix_{i-1}^{-1}.
    Returns (entries, was_reduced); unreduced input is reduced first.
    """
    word = tuple(word)
    nf = system.normal_form(word)
    was_reduced = len(nf) == len(word)
    use = word if was_reduced else nf
    entries = []
    for i in range(len(use)):
        prefix = use[:i]
        refl = prefix + (use[i],) + tuple(reversed(prefix))
        entries.append(system.normal_form(refl))
    return entries, was_reduced

