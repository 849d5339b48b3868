"""The tile alphabet builder that coxtile.tiles replaced, kept verbatim as a
test oracle.  It asks WallSet.separates (crossing parity of the walls each
chamber's geodesic crosses) for the side of every face, and sorts each chamber's
(color, sign) labels by their string keys.  Used only by tests.
"""

from paper_checks import tile_of_faces

from coxtile.tiles import TileAlphabet, _face_key
from coxtile.walls import WallSet


def build_alphabet(wallset: WallSet, wall_colors: dict, orientation: dict) -> TileAlphabet:
    """Label every interior chamber with its (color, sign) face multiset.

    A chamber is interior when all its generator edges lie in the ball;
    chambers with a face on an uncolored or unoriented wall are excluded
    and recorded.
    """
    ball = wallset.ball
    rank = ball.system.rank
    base = 0
    chamber_faces = {}
    excluded = []
    for cid in range(len(ball)):
        faces = []
        ok = True
        for s in range(rank):
            wid = wallset.faces[cid * rank + s]
            if wid < 0:  # the s-edge leaves the ball
                ok = False
                break
            if wid not in wall_colors or wid not in orientation:
                excluded.append((cid, s))
                ok = False
                break
            side = -1 if wallset.separates(wid, base, cid) else 1
            faces.append((wall_colors[wid], orientation[wid] * side))
        if ok:
            chamber_faces[cid] = tile_of_faces(faces)
    tiles = sorted(set(chamber_faces.values()), key=lambda t: [(_face_key(f)) for f in t])
    tile_ids = {t: i for i, t in enumerate(tiles)}
    chamber_tile = {cid: tile_ids[t] for cid, t in chamber_faces.items()}
    return TileAlphabet(tiles, tile_ids, chamber_tile, excluded, ball.radius)
