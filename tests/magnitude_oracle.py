"""How coxtile.hyperbolic assigned a vertex its magnitude before render_bundle
built one shade per wall: by the pair of a and b colors of the two walls
crossing there, each class's colors indexed in `str` order.  Kept as a test
oracle; used only by tests.
"""

from coxtile.colorings import NORM_PALETTE


def default_magnitudes(a_colors, b_colors, epsilon: float):
    """d for the (i, j)-th color pair: epsilon * (9 i + j + 1) / 100.

    With nine colors per class all 81 values are distinct.
    """
    a_index = {c: i for i, c in enumerate(sorted(a_colors, key=str))}
    b_index = {c: i for i, c in enumerate(sorted(b_colors, key=str))}

    def magnitude(ca, cb):
        return epsilon * (9 * a_index[ca] + b_index[cb] + 1) / 100.0

    return magnitude


def render_colors(refine: bool):
    """The a colors and the b colors of render's palette, refined or not."""
    if refine:
        return [("a", c) for c in NORM_PALETTE], [("b", c) for c in NORM_PALETTE]
    return ["a"], ["b"]


def wall_pair_magnitude(wall_colors: list, refine: bool, epsilon: float):
    """magnitude(wa, wb) of the vertex where walls wa and wb cross: the rule
    above on their colors, after checking that one is an a wall and the
    other a b wall."""
    class_of = (lambda color: color[0]) if refine else (lambda color: color)
    magnitude = default_magnitudes(*render_colors(refine), epsilon)

    def of_walls(wa, wb):
        labels = {class_of(wall_colors[w]): wall_colors[w] for w in (wa, wb)}
        assert set(labels) == {"a", "b"}, f"walls {wa} and {wb} are not an a/b crossing"
        return magnitude(labels["a"], labels["b"])

    return of_walls
