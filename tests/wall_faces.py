"""The wall through one face of a chamber, as WallSet.wall_of_face gave it
before the library read its faces straight off WallSet.faces.  Used only by
tests: they name a face by (chamber, generator) and want an error, not -1,
for a face the ball cannot settle.
"""

from coxtile.errors import InconclusiveError, OutOfBallError


def wall_of_face(wallset, cid: int, s: int) -> int:
    """Wall through the face of chamber cid crossed by generator s.  Raises
    OutOfBallError for a face of no chamber, and InconclusiveError, naming
    the chamber's norm and the radius it needs, for a face leaving the ball."""
    ball, n = wallset.ball, wallset.ball.system.rank
    if 0 <= cid < len(ball) and 0 <= s < n and ball.nbr[cid * n + s] >= 0:
        return wallset.faces[cid * n + s]
    where = f"the radius-{ball.radius} ball"
    if not (0 <= cid < len(ball) and 0 <= s < n):
        raise OutOfBallError(f"no face ({cid}, {s}): {where} has chambers "
                             f"0..{len(ball) - 1} and generators 0..{n - 1}")
    norm = ball.norms[cid]  # only a chamber on the outer sphere misses an edge
    raise InconclusiveError(f"chamber {cid} has norm {norm} and its {s}-neighbour lies "
                            f"outside {where}; enlarge the radius to at least {norm + 1}")
