"""Wall words spelled letter by letter, as coxtile.walls did before it read
each word straight off the ball as nf(g) s nf(g^-1).

The wall of the upward edge (g, s) is the reflection g s g^-1; this oracle
writes that palindrome out from the ball's stored word for g and hands it to
`CoxeterSystem.normal_form`, with no inverse table and no claim about which
reduced word of the reflection is least.
"""


def oracle_wall_words(wallset):
    """Canonical word of every wall, by wall id."""
    ball = wallset.ball
    words = []
    for wall in wallset.walls:
        cid, s = wall.edges[0]
        g = ball.words[cid]
        words.append(ball.system.normal_form(g + (s,) + tuple(reversed(g))))
    return words
