"""The radial-claim scan that paper_checks.py replaced with one that runs
`radial_claim_check`'s own tests, kept verbatim as a test oracle: it tests
color, displacement and norm itself, behind caches of its own.  Used only by
tests.
"""

from paper_checks import ClaimScan


def radial_claim_scan(ball, coloring, max_g_norm: int, min_len: int) -> ClaimScan:
    """Exhaustive radial_claim_check over all radial segments with at least
    `min_len` vertices and all g of norm <= max_g_norm in the ball."""
    ids = range(len(ball.words))
    n, norms = ball.system.rank, ball.norms
    up = {}
    for i in ids:
        up[i] = [j for j in ball.nbr[i * n : i * n + n] if j >= 0 and norms[j] == norms[i] + 1]
    gs = [w for w in ball.members() if ball.norm(w) <= max_g_norm]
    # g * x norms, precomputed once per (g, x)
    norm_gx = {}
    color_x = {}
    for x in ball.members():
        color_x[x] = coloring.value(x)
    gx_cache = {}
    for g in gs:
        for x in ball.members():
            gx = ball.mul(g, x)
            gx_cache[(g, x)] = gx
            norm_gx[(g, x)] = ball.norm(gx)
    disp_cache = {}

    def displacement(g, x):
        if (g, x) not in disp_cache:
            disp_cache[(g, x)] = ball.norm(ball.mul(ball.inv(x), gx_cache[(g, x)]))
        return disp_cache[(g, x)]

    segments = 0
    checked = 0
    hypotheses_met = 0
    failures = []
    stack = [(i, [i]) for i in ids]
    while stack:
        i, path = stack.pop()
        for j in up[i]:
            stack.append((j, path + [j]))
        if len(path) < min_len:
            continue
        segments += 1
        words = [ball.words[p] for p in path]
        k = len(words)
        for g in gs:
            checked += 1
            ok = True
            for x in words:
                gx = gx_cache[(g, x)]
                cx = color_x[x]
                cgx = color_x.get(gx)
                if cgx is None:
                    cgx = coloring.value(gx)
                if cx != cgx:
                    ok = False
                    break
            if not ok:
                continue
            if not any(2 * displacement(g, x) < k for x in words):
                continue
            hypotheses_met += 1
            for idx, x in enumerate(words):
                if norm_gx[(g, x)] != ball.norm(x):
                    failures.append((g, words, idx))
                    break
    return ClaimScan(segments, checked, hypotheses_met, failures)
