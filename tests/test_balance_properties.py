"""Property test: classify_balance against the brute-force grid oracle.

Random alphabets over at most four colors.  The grid oracle can confirm
unbalance and refute strict balance; the classifier must agree whenever it
does, and every witness must re-sum, in plain integers, to the reported
tile sums with the signs its verdict promises.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from paper_checks import tile_of_faces

from coxtile.tiles import TileAlphabet, classify_balance, grid_oracle

faces = st.tuples(st.sampled_from("abcd"), st.sampled_from([1, -1]))
tilesets = st.lists(st.lists(faces, min_size=1, max_size=4), min_size=1, max_size=6)


def _alphabet(tiles):
    tiles = sorted({tile_of_faces(t) for t in tiles}, key=lambda t: [(str(f[0]), f[1]) for f in t])
    return TileAlphabet(tiles, {t: i for i, t in enumerate(tiles)}, {}, [], radius=0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tilesets)
def test_classifier_agrees_with_grid_oracle(tiles):
    alpha = _alphabet(tiles)
    verdict = classify_balance(alpha)
    oracle = grid_oracle(alpha)
    if oracle["confirms_unbalanced"]:
        assert verdict.verdict == "unbalanced"
    if oracle["refutes_strict_balance"]:
        assert verdict.verdict != "strictly_balanced"

    if verdict.verdict == "strictly_balanced":
        assert verdict.witness is None and verdict.tile_sums == []
        return
    weights = verdict.witness.weights
    assert all(w.denominator == 1 for w in weights.values())
    resums = [sum(sign * int(weights.get(color, 0)) for color, sign in t) for t in alpha.tiles]
    assert resums == verdict.tile_sums
    if verdict.verdict == "unbalanced":
        assert all(s > 0 for s in resums)
    else:
        assert verdict.verdict == "semibalanced"
        assert any(w != 0 for w in weights.values())
        assert all(s >= 0 for s in resums)
