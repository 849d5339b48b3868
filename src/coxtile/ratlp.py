"""Exact rational linear programming: the simplex from the slack basis.

Solves  max c.x  subject to  A x <= b,  x >= 0  exactly, for b >= 0.  Then
x = 0 is feasible and the slack basis is a vertex to start from, so there is
one phase and the status is "optimal" or "unbounded".  A negative b_i is
rejected with ValidationError before any tableau is built.  Every LP the
balance classifier poses meets the contract: its rows are tile rows, which
make a homogeneous cone (right-hand side 0), and unit rows, which box that
cone (right-hand side 1).  Bland's rule guarantees termination on the
degenerate systems it produces.

The tableau is fraction-free and sparse.  Each row is a {column: int} map
of its nonzeros (the right-hand side is one more column), and it equals the
true rational row times a positive factor.  The true row has a 1 in its
basic column, so that factor is the row's own basic entry.  Every row is
kept primitive: the gcd of its entries is divided out.  The reduced-cost row
is stored the same way, as the row of the objective variable z, whose
column holds the row's positive factor.

A pivot on p = row_r[col] > 0 replaces each other row with a nonzero entry a
in `col` by (p*row - a*row_r) / gcd(p, a), made primitive: integer-preserving
elimination in the manner of Bareiss.  Rows with a zero in `col` are not
touched, and the subtraction runs over the nonzeros of row_r only.

Why the pivot order is the textbook one: Bland's rule reads only the signs
of the reduced costs and the order of the ratios rhs_i / a_i, with ties
broken by basis index.  Scaling a row or the objective by a positive factor
changes neither a sign nor a ratio, so this tableau visits exactly the bases
that the dense Fraction tableau visits, and x and the objective come out
equal.  Ratios are compared by cross-multiplying.

Integers in, Fractions out.  c, A and b must hold ints, as every LP of the
balance classifier does, and anything else is refused with ValidationError.
A caller with rational data scales each row (A_i | b_i) by a positive
integer, which changes neither the feasible set nor, by the argument above,
a pivot, and scales c by one, which divides out of the objective.  Only x
and the objective are read back as Fractions.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ValidationError


@dataclass
class LPResult:
    status: str  # "optimal" | "unbounded"
    x: list | None
    objective: Fraction | None


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
_RHS = -2  # column of the right-hand side; the variable columns are 0, 1, ...


class _Tableau:
    def __init__(self, rows, basis, obj):
        self.rows = rows  # {col: int} nonzeros, times rows[i][basis[i]] > 0
        self.basis = basis
        self.obj = obj  # reduced costs and (-value) at _RHS, times obj[_Z] > 0

    def pivot(self, r, col):
        rows = self.rows
        p = rows[r][col]
        pivot_items = list(rows[r].items())
        for i, row in enumerate(rows):
            a = row.get(col)
            if a and i != r:
                rows[i] = _eliminate(row, a, p, pivot_items)
        a = self.obj.get(col)
        if a:
            self.obj = _eliminate(self.obj, a, p, pivot_items)
        self.basis[r] = col

    def run(self):
        # Bland: entering = least-index variable column with a positive
        # reduced cost; leaving = min ratio rhs/a over a > 0, ties by least
        # basis index
        while True:
            col = min((j for j, v in self.obj.items() if v > 0 and j >= 0), default=None)
            if col is None:
                return "optimal"
            best = None
            for i, row in enumerate(self.rows):
                a = row.get(col, 0)
                if a > 0:
                    rhs = row.get(_RHS, 0)
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
    """Maximize c.x subject to A x <= b and x >= 0, exactly, for int c, A
    and b with b >= 0."""
    m = len(A)
    n = len(c)
    if any(len(r) != n for r in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    for v in (*c, *b, *(v for row in A for v in row)):
        if type(v) is not int:  # a bool is refused too
            raise ValidationError(f"solve_lp takes int entries; scale rational rows to integers, got {v!r}")
    for i, v in enumerate(b):
        if v < 0:
            raise ValidationError(f"solve_lp needs b >= 0, so that x = 0 is feasible; b[{i}] = {v}")

    tab_rows = []
    for i, (Ai, bi) in enumerate(zip(A, b)):
        row = {j: v for j, v in enumerate(Ai) if v}
        if bi:
            row[_RHS] = bi
        row[n + i] = 1  # the slack column, basic; its 1 keeps the row primitive
        tab_rows.append(row)
    obj = {j: v for j, v in enumerate(c) if v}  # slack columns cost nothing
    obj[_Z] = 1
    tab = _Tableau(tab_rows, [n + i for i in range(m)], obj)

    if tab.run() == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * n
    for row, bcol in zip(tab.rows, tab.basis):
        if bcol < n:
            x[bcol] = Fraction(row.get(_RHS, 0), row[bcol])
    return LPResult("optimal", x, Fraction(-tab.obj.get(_RHS, 0), tab.obj[_Z]))
