"""How coxtile.hyperbolic read the sign a chamber sees on each of its faces
before render_bundle read them off WallSet.face_rows: from the ball's norms,
one descent test per face.  Kept as a test oracle; used only by tests.
"""

from wall_faces import wall_of_face


def face_signs(ball, wallset, orientation: list, cid: int) -> list:
    """(wall, sign) for each side of chamber g = cid: the sign g sees on the
    face, orientation[wall] negated when s is a descent (|g s| < |g|), since
    the wall then lies between e and g.  `build_alphabet` reads the side off
    the same descent.  Raises InconclusiveError when a face leaves the ball."""
    rank, norms = ball.system.rank, ball.norms
    row, norm = cid * rank, norms[cid]
    out = []
    for s, (wid, j) in enumerate(zip(wallset.faces[row:row + rank], ball.nbr[row:row + rank])):
        if j < 0:
            wall_of_face(wallset, cid, s)  # raises InconclusiveError: the face leaves the ball
        sign = orientation[wid]
        out.append((wid, -sign if norms[j] < norm else sign))
    return out
