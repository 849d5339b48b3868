"""Test oracle: the dense Fraction two-phase simplex that coxtile.ratlp replaced.

Solves  max c.x  subject to  A x <= b,  x >= 0  entirely in Fractions, with
Bland's rule, rebuilding every tableau row on every pivot.  It is kept
verbatim as the reference for tests/test_ratlp_differential.py and is used
nowhere else.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list | None
    objective: Fraction | None


class _Tableau:
    def __init__(self, rows, basis):
        self.rows = rows  # each row: coefficients + rhs
        self.basis = basis
        self.obj = [Fraction(0)] * len(rows[0]) if rows else []

    def set_objective(self, cost):
        # reduced costs: start from the cost vector, zero out basic columns
        self.obj = list(cost) + [Fraction(0)]
        for i, b in enumerate(self.basis):
            if self.obj[b] != 0:
                f = self.obj[b]
                self.obj = [a - f * r for a, r in zip(self.obj, self.rows[i])]

    @property
    def value(self):
        return -self.obj[-1]

    def pivot(self, r, col):
        piv = self.rows[r][col]
        self.rows[r] = [v / piv for v in self.rows[r]]
        for i in range(len(self.rows)):
            if i != r and self.rows[i][col] != 0:
                f = self.rows[i][col]
                self.rows[i] = [a - f * p for a, p in zip(self.rows[i], self.rows[r])]
        if self.obj[col] != 0:
            f = self.obj[col]
            self.obj = [a - f * p for a, p in zip(self.obj, self.rows[r])]
        self.basis[r] = col

    def run(self, allowed):
        # Bland: entering = least-index positive reduced cost; leaving = min
        # ratio, ties by least basis index
        while True:
            col = next((j for j in allowed if self.obj[j] > 0), None)
            if col is None:
                return "optimal"
            best = None
            for i, row in enumerate(self.rows):
                if row[col] > 0:
                    key = (row[-1] / row[col], self.basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                return "unbounded"
            self.pivot(best[1], col)


def solve_lp(c, A, b) -> LPResult:
    """Maximize c.x subject to A x <= b and x >= 0, exactly."""
    m = len(A)
    n = len(c)
    c = [Fraction(v) for v in c]
    rows = [[Fraction(v) for v in Ai] for Ai in A]
    rhs = [Fraction(v) for v in b]
    if any(len(r) != n for r in rows) or len(rhs) != m:
        raise ValueError("inconsistent LP dimensions")

    art_rows = [i for i in range(m) if rhs[i] < 0]
    art_index = {i: k for k, i in enumerate(art_rows)}
    ncols = n + m + len(art_rows)

    tab_rows = []
    basis = []
    for i in range(m):
        flip = rhs[i] < 0
        coeffs = [-v for v in rows[i]] if flip else list(rows[i])
        row = [Fraction(0)] * (ncols + 1)
        row[:n] = coeffs
        row[n + i] = Fraction(-1) if flip else Fraction(1)
        if flip:
            row[n + m + art_index[i]] = Fraction(1)
            basis.append(n + m + art_index[i])
        else:
            basis.append(n + i)
        row[-1] = -rhs[i] if flip else rhs[i]
        tab_rows.append(row)
    tab = _Tableau(tab_rows, basis)

    real_cols = list(range(n + m))
    if art_rows:
        phase1 = [Fraction(0)] * ncols
        for j in range(n + m, ncols):
            phase1[j] = Fraction(-1)
        tab.set_objective(phase1)
        status = tab.run(range(ncols))
        assert status == "optimal", "phase 1 cannot be unbounded"
        if tab.value != 0:
            return LPResult("infeasible", None, None)
        # pivot zero-valued artificials out; drop rows that are redundant
        keep = []
        for i in range(len(tab.rows)):
            if tab.basis[i] >= n + m:
                col = next((j for j in real_cols if tab.rows[i][j] != 0), None)
                if col is None:
                    continue  # redundant constraint
                tab.pivot(i, col)
            keep.append(i)
        tab.rows = [tab.rows[i] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]

    tab.set_objective(c + [Fraction(0)] * (ncols - n))
    status = tab.run(real_cols)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * n
    for i, bcol in enumerate(tab.basis):
        if bcol < n:
            x[bcol] = tab.rows[i][-1]
    return LPResult("optimal", x, tab.value)
