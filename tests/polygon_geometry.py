"""Side and angle readings of a base polygon, for the geometry tests: the
library builds its polygon in closed form and reads neither."""

from math import acos

from coxtile.hyperbolic import HPolygon, lorentz_dot, tangent_toward


def side(polygon: HPolygon, k: int) -> tuple:
    """The two vertices of side k, vertex k and vertex k+1."""
    return polygon.vertices[k], polygon.vertices[(k + 1) % polygon.p]


def angle_at(b, a, c) -> float:
    """Interior angle at b of the geodesic triangle a-b-c."""
    ta = tangent_toward(b, a)
    tc = tangent_toward(b, c)
    return acos(max(-1.0, min(1.0, lorentz_dot(ta, tc))))


def angles(polygon: HPolygon) -> list:
    """The interior angle at each vertex, in vertex order."""
    v, p = polygon.vertices, polygon.p
    return [angle_at(v[k], v[k - 1], v[(k + 1) % p]) for k in range(p)]
