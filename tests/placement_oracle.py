"""Hexagon tile placement from integer matrices, kept as a test oracle for
coxtile.hyperbolic.place_tiles.

The side normals n_0, ..., n_5 of the right-angled hexagon have an integral
Gram matrix G, circulant with row 0 equal to [1, 0, -2, -3, -2, 0]: adjacent
sides are perpendicular, and sides two and three apart have Lorentz products
-2 and -3.  The reflection in side s sends n_j to n_j - 2 G_sj n_s, so the
matrix M_g of a word g, the product of its letters' reflections, acts on the
normals by an integer 6x6 matrix rho(g): M_g n_j = sum_i rho(g)_ij n_i.
rho(g s) is rho(g) with column j changed by -2 G_sj times column s, exact
integer arithmetic along the ShortLex tree.  M_g is then N rho(g) N^+, with
N the 3x6 matrix of normals taken from numpy cross products of the base
vertices and N^+ its right inverse, so the oracle shares no code with the
float products it checks.  Used only by tests.
"""

import numpy as np

GRAM = np.array([np.roll([1, 0, -2, -3, -2, 0], i) for i in range(6)], dtype=np.int64)
J = np.diag([1.0, 1.0, -1.0])


def cross_normals(vertices) -> np.ndarray:
    """3x6 matrix whose column k is the unit Lorentz normal of side k, which
    joins vertices k and k+1, with the basepoint on its positive side."""
    V = np.array(vertices)
    N = J @ np.cross(V, np.roll(V, -1, axis=0)).T
    return N / np.sqrt(np.einsum("ik,ij,jk->k", N, J, N))


def integer_matrices(words) -> dict:
    """word -> rho(word), for ShortLex words listed after their parents."""
    rho = {(): np.eye(6, dtype=np.int64)}
    for w in words:
        if w:
            r = rho[w[:-1]]
            rho[w] = r - 2 * np.outer(r[:, w[-1]], GRAM[w[-1]])
    return rho


def placed_vertices(words, vertices) -> dict:
    """word -> 6x3 array of the hexagon's vertices placed by M_word."""
    N = cross_normals(vertices)
    assert np.max(np.abs(N.T @ J @ N - GRAM)) < 1e-12, "not the right-angled hexagon"
    right = np.linalg.pinv(N)
    V = np.array(vertices).T
    return {w: (N @ r @ right @ V).T for w, r in integer_matrices(words).items()}
