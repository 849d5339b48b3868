"""The right-angled rewriting that coxtile.coxeter replaced with its descent
engine, kept verbatim as a test oracle.  It reads nothing of the library but
the Coxeter matrix: a normal form is built letter by letter.  Used only by
tests.
"""

from coxtile.coxeter import CoxeterSystem


def is_right_angled(system: CoxeterSystem) -> bool:
    """Every two distinct generators commute (order 2) or are free (order 0)."""
    n, m = system.rank, system.matrix
    return all(m[i][j] in (0, 2) for i in range(n) for j in range(n) if i != j)

# -- right-angled rewriting ------------------------------------------------
#
# Canonical form = lexicographically least reduced word.  Appending one
# generator preserves canonicity: either it cancels against a matching
# letter whose suffix commutes with it, or it is inserted in front of the
# larger letters of the maximal commuting suffix.


def _ra_mul_gen(system: CoxeterSystem, nf: tuple[int, ...], s: int) -> tuple[int, ...]:
    m = system.matrix
    for i in range(len(nf) - 1, -1, -1):
        x = nf[i]
        if x == s:
            return nf[:i] + nf[i + 1 :]
        if m[x][s] != 2:
            blocker = i
            break
    else:
        blocker = -1
    pos = blocker + 1
    while pos < len(nf) and nf[pos] < s:
        pos += 1
    return nf[:pos] + (s,) + nf[pos:]


def ra_normal_form(system: CoxeterSystem, word) -> tuple[int, ...]:
    """ShortLex-least reduced word for `word` in a right-angled system."""
    nf = ()
    for s in word:
        nf = _ra_mul_gen(system, nf, s)
    return nf
