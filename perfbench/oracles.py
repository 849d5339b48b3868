"""Independent checks for the benchmark's jobs.

Everything here is exact integer or Fraction arithmetic written for the
benchmark alone: growth series over the nerve, integer reflection matrices,
Thue-Morse recoding and witness re-summing.  None of it calls the coxtile
code path whose time a job measures, so a wrong verdict cannot confirm
itself.  Each check raises CheckFailed with a short reason.
"""

from fractions import Fraction
from itertools import combinations
from math import comb


class CheckFailed(Exception):
    """A job's output disagrees with an independent check."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- right-angled growth series -------------------------------------------------


def ra_sphere_sizes(matrix, radius):
    """Sphere sizes of a right-angled Coxeter group from its growth series.

    1/W(t) = sum over the simplices sigma of the nerve of (-t/(1+t))^|sigma|;
    the simplices are the cliques of the commuting graph (m = 2).
    """
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            if i != j and matrix[i][j] not in (0, 2):
                raise ValueError("growth series here needs a right-angled system")
    counts = [1]
    size = 1
    while True:
        found = sum(
            1
            for sigma in combinations(range(n), size)
            if all(matrix[a][b] == 2 for a, b in combinations(sigma, 2))
        )
        if not found:
            break
        counts.append(found)
        size += 1
    d = len(counts) - 1
    # W(t) = (1+t)^d / P(t) with P(t) = sum_k c_k (-t)^k (1+t)^(d-k)
    numer = [comb(d, i) for i in range(d + 1)]
    denom = [0] * (d + 1)
    for k, c in enumerate(counts):
        for i in range(d - k + 1):
            denom[k + i] += c * (-1) ** k * comb(d - k, i)
    series = []
    for m in range(radius + 1):
        acc = Fraction(numer[m] if m <= d else 0)
        for i in range(1, min(m, d) + 1):
            acc -= denom[i] * series[m - i]
        series.append(acc / denom[0])
    require(all(a.denominator == 1 for a in series), "growth series is not integral")
    return [int(a) for a in series]


# -- integer reflection representation ------------------------------------------

# 2 * B(i, j) = -2 cos(pi / m) is an integer exactly for m in {1, 2, 3, infinity}
# (infinity is encoded as 0 in a Coxeter matrix).
_TWICE_B = {1: 2, 2: 0, 3: -1, 0: -2}


def integer_generators(matrix):
    """Generator matrices of the standard reflection representation, as
    tuples of integer rows; row i of generator i is e_i - 2 B_i."""
    n = len(matrix)
    gens = []
    for i in range(n):
        rows = []
        for r in range(n):
            row = [1 if c == r else 0 for c in range(n)]
            if r == i:
                for c in range(n):
                    if matrix[i][c] not in _TWICE_B:
                        raise ValueError(f"m = {matrix[i][c]} has no integer reflection matrix")
                    row[c] -= _TWICE_B[matrix[i][c]]
            rows.append(tuple(row))
        gens.append(tuple(rows))
    return gens


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def identity(n):
    return tuple(tuple(1 if c == r else 0 for c in range(n)) for r in range(n))


def word_matrix(gens, word):
    m = identity(len(gens))
    for s in word:
        m = mat_mul(m, gens[s])
    return m


def exact_lengths(matrix, radius):
    """Breadth-first search of the ball with exact integer matrices as keys.

    Returns (sphere sizes, {matrix: word length}).  The representation is
    faithful, so equal matrices are equal group elements.
    """
    gens = integer_generators(matrix)
    start = identity(len(gens))
    length = {start: 0}
    frontier = [start]
    sizes = [1]
    for level in range(1, radius + 1):
        nxt = []
        for m in frontier:
            for g in gens:
                p = mat_mul(m, g)
                if p not in length:
                    length[p] = level
                    nxt.append(p)
        sizes.append(len(nxt))
        frontier = nxt
    return sizes, length


def check_reflection_word(gens, word, defining_word):
    """`word` must spell the same element as `defining_word`, and that
    element must be a reflection: a nontrivial involution."""
    m = word_matrix(gens, word)
    require(m == word_matrix(gens, defining_word), f"word {word} is not the reflection it names")
    one = identity(len(gens))
    require(m != one and mat_mul(m, m) == one, f"word {word} is not an involution")
    require(len(word) % 2 == 1, f"reflection word {word} has even length")


def check_cocycle(gens, word, entries, was_reduced):
    """The reflections crossed along a geodesic for `word`, multiplied in
    reverse order, give the element of `word`; each is a reflection and a
    geodesic crosses no wall twice."""
    one = identity(len(gens))
    prod = one
    for r in entries:
        m = word_matrix(gens, r)
        require(m != one and mat_mul(m, m) == one, f"cocycle entry {r} is not a reflection")
        prod = mat_mul(m, prod)
    require(prod == word_matrix(gens, word), f"cocycle of {word} does not multiply back to it")
    mats = {word_matrix(gens, r) for r in entries}
    require(len(mats) == len(entries), f"cocycle of {word} crosses a wall twice")
    require(was_reduced == (len(entries) == len(word)), "was_reduced disagrees with entry count")


# -- sequences ------------------------------------------------------------------

_RECODE = {(0, 1): 0, (1, 0): 1, (0, 0): 2, (1, 1): 2}


def thue_morse(n):
    """Term i is the parity of the binary digit sum of i."""
    return [bin(i).count("1") & 1 for i in range(n)]


def ternary_by_recoding(n):
    tm = thue_morse(n + 1)
    return [_RECODE[(tm[i], tm[i + 1])] for i in range(n)]


def norm_color(length, ternary):
    return (ternary[length], length % 3)


# -- balance witnesses ----------------------------------------------------------


def integer_weights(weights):
    out = {}
    for color, v in weights.items():
        f = Fraction(v)
        require(f.denominator == 1, f"witness weight {v} for {color} is not an integer")
        out[str(color)] = int(f)
    return out


def tile_sums(tiles, weights):
    """Sum of sign * weight over the faces of each tile, in integers."""
    return [sum(sign * weights.get(str(color), 0) for color, sign in t) for t in tiles]


# Strict balance is brute-forced on a [-2, 2] grid, 5^k weights for k colors.
GRID_MAX_COLORS = 4


def check_verdict(tiles, verdict, weights, reported_sums, refutes_strict_balance=None):
    """Re-sum a balance witness and test the verdict it supports.

    `tiles` are lists of (color, sign); `weights` maps color -> value.
    Strict balance has no witness; for at most GRID_MAX_COLORS colors
    `refutes_strict_balance(tiles)`, a brute-force search for a nonzero
    weight with all sums >= 0, must come back False.
    """
    colors = {str(c) for t in tiles for c, _ in t}
    if verdict in ("unbalanced", "semibalanced"):
        require(weights is not None, f"{verdict} verdict carries no witness")
        w = integer_weights(weights)
        require(set(w) <= colors, "witness names colors absent from the alphabet")
        require(any(w.values()), "witness is zero")
        sums = tile_sums(tiles, w)
        if verdict == "unbalanced":
            require(all(s > 0 for s in sums), "unbalanced witness has a tile sum <= 0")
        else:
            require(all(s >= 0 for s in sums), "semibalanced witness has a negative tile sum")
        require(
            [Fraction(s) for s in reported_sums] == [Fraction(s) for s in sums],
            "reported tile sums differ from the re-summed ones",
        )
    elif verdict == "strictly_balanced":
        require(weights is None, "strict balance reported with a witness")
        if refutes_strict_balance is not None and len(colors) <= GRID_MAX_COLORS:
            require(not refutes_strict_balance(tiles), "grid oracle found a nonzero weight with sums >= 0")
    else:
        raise CheckFailed(f"unknown verdict {verdict!r}")
