"""Exact rational linear programming via two-phase simplex.

Solves  max c.x  subject to  A x <= b,  x >= 0  exactly.  Bland's rule
guarantees termination on the degenerate systems the balance classifier
produces.

The tableau is fraction-free and sparse.  Each row is a {column: int} map
of its nonzeros (the right-hand side is one more column), and it equals the
true rational row times a positive factor.  The true row has a 1 in its
basic column, so that factor is the row's own basic entry.  Every row is
kept primitive: the gcd of its entries is divided out.  The reduced-cost row
is stored the same way, as the row of the objective variable z, whose
column holds the row's positive factor.

A pivot on p = row_r[col] replaces each other row with a nonzero entry a in
`col` by (p*row - a*row_r) / gcd(p, a), made primitive: integer-preserving
elimination in the manner of Bareiss.  Rows with a zero in `col` are not
touched, and the subtraction runs over the nonzeros of row_r only.  A
negative pivot (possible only when a zero-valued artificial variable is
driven out of the basis after phase 1) negates its row first, so every
factor stays positive.

Why the pivot order is the textbook one: Bland's rule reads only the signs
of the reduced costs and the order of the ratios rhs_i / a_i, with ties
broken by basis index.  Scaling a row or the objective by a positive factor
changes neither a sign nor a ratio, so this tableau visits exactly the bases
that the dense Fraction tableau visits, and x and the objective come out
equal.  Ratios are compared by cross-multiplying.  Fractions appear only at
the boundary: the input rows are scaled to integers, and x and the
objective are read back as Fractions.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import StructureError


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list | None
    objective: Fraction | None


def _rational(v):
    return v if isinstance(v, int) else Fraction(v)


def _int_row(values):
    """A list of ints and Fractions as (ints, positive common denominator)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _primitive(row):
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _eliminate(row, a, p, pivot_items):
    """Primitive multiple of p*row - a*pivot_row, for p > 0 and a != 0.

    pivot_items are the pivot row's nonzeros; `row` may be reused for the
    result.
    """
    g = gcd(p, a)
    p //= g
    a //= g
    if p != 1:
        row = {j: p * v for j, v in row.items()}
    for j, v in pivot_items:
        w = row.get(j, 0) - a * v
        if w:
            row[j] = w
        else:
            del row[j]
    return _primitive(row)


_Z = -1  # column of the objective variable z in the reduced-cost row


class _Tableau:
    def __init__(self, rows, basis, rhs):
        self.rows = rows  # {col: int} nonzeros, times rows[i][basis[i]] > 0
        self.basis = basis
        self.rhs = rhs  # column key of the right-hand side
        self.obj = {_Z: 1}  # reduced costs and (-value) at rhs, times obj[_Z] > 0

    def set_objective(self, cost, den):
        # reduced costs: start from the cost vector, zero out basic columns
        obj = {j: v for j, v in enumerate(cost) if v}
        obj[_Z] = den
        for i, b in enumerate(self.basis):
            f = obj.get(b)
            if f:
                row = self.rows[i]
                obj = _eliminate(obj, f, row[b], row.items())
        self.obj = obj

    @property
    def value(self):
        return Fraction(-self.obj.get(self.rhs, 0), self.obj[_Z])

    def pivot(self, r, col):
        rows = self.rows
        p = rows[r][col]
        if p < 0:
            rows[r] = {j: -v for j, v in rows[r].items()}
            p = -p
        pivot_items = list(rows[r].items())
        for i, row in enumerate(rows):
            a = row.get(col)
            if a and i != r:
                rows[i] = _eliminate(row, a, p, pivot_items)
        a = self.obj.get(col)
        if a:
            self.obj = _eliminate(self.obj, a, p, pivot_items)
        self.basis[r] = col

    def run(self, ncols):
        # Bland: entering = least-index positive reduced cost among columns
        # < ncols; leaving = min ratio rhs/a over a > 0, ties by least basis
        # index
        rhs_col = self.rhs
        while True:
            col = min((j for j, v in self.obj.items() if v > 0 and 0 <= j < ncols), default=None)
            if col is None:
                return "optimal"
            best = None
            for i, row in enumerate(self.rows):
                a = row.get(col, 0)
                if a > 0:
                    rhs = row.get(rhs_col, 0)
                    if best is None:
                        best, best_rhs, best_a = i, rhs, a
                        continue
                    lhs, rhs_best = rhs * best_a, best_rhs * a
                    if lhs < rhs_best or (lhs == rhs_best and self.basis[i] < self.basis[best]):
                        best, best_rhs, best_a = i, rhs, a
            if best is None:
                return "unbounded"
            self.pivot(best, col)


def solve_lp(c, A, b) -> LPResult:
    """Maximize c.x subject to A x <= b and x >= 0, exactly."""
    m = len(A)
    n = len(c)
    c = [_rational(v) for v in c]
    rows = [[_rational(v) for v in Ai] for Ai in A]
    rhs = [_rational(v) for v in b]
    if any(len(r) != n for r in rows) or len(rhs) != m:
        raise ValueError("inconsistent LP dimensions")

    art_rows = [i for i in range(m) if rhs[i] < 0]
    art_index = {i: k for k, i in enumerate(art_rows)}
    ncols = n + m + len(art_rows)

    tab_rows = []
    basis = []
    for i in range(m):
        coeffs, den = _int_row(rows[i] + [rhs[i]])
        sign = -1 if rhs[i] < 0 else 1  # flip rows with rhs < 0 to rhs > 0
        row = {j: sign * v for j, v in enumerate(coeffs[:n]) if v}
        if coeffs[n]:
            row[ncols] = sign * coeffs[n]
        row[n + i] = sign * den
        basis.append(n + m + art_index[i] if sign < 0 else n + i)
        row[basis[-1]] = den
        tab_rows.append(_primitive(row))
    tab = _Tableau(tab_rows, basis, rhs=ncols)

    if art_rows:
        phase1 = [0] * (n + m) + [-1] * len(art_rows)
        tab.set_objective(phase1, 1)
        status = tab.run(ncols)
        if status != "optimal":
            raise StructureError(f"phase 1 returned {status!r}; it is bounded by construction")
        if tab.value != 0:
            return LPResult("infeasible", None, None)
        # pivot zero-valued artificials out; drop rows that are redundant
        keep = []
        for i in range(len(tab.rows)):
            if tab.basis[i] >= n + m:
                col = min((j for j in tab.rows[i] if j < n + m), default=None)
                if col is None:
                    continue  # redundant constraint
                tab.pivot(i, col)
            keep.append(i)
        tab.rows = [tab.rows[i] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]

    cost, den = _int_row(c)
    tab.set_objective(cost, den)
    status = tab.run(n + m)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * n
    for i, bcol in enumerate(tab.basis):
        if bcol < n:
            x[bcol] = Fraction(tab.rows[i].get(ncols, 0), tab.rows[i][bcol])
    return LPResult("optimal", x, tab.value)
