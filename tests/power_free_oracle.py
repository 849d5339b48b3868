"""The numpy power-freeness scanner that coxtile.sequences replaced, kept
verbatim as a test oracle.  For every period it builds the full comparison
of the prefix with its shift and finds runs of (power - 1) * period matches
by a cumulative sum, so it never stops early.  Used only by tests.
"""

import numpy as np

from coxtile.errors import ValidationError, WindowError
from coxtile.sequences import PowerWitness


def verify_power_free(seq, power: int, n: int):
    """Scan the first n symbols for a factor W^power.

    Returns None when no such factor exists (the prefix is power-free),
    otherwise the leftmost witness, ties broken by the shortest W.
    """
    if power not in (2, 3):
        raise ValidationError("power must be 2 or 3")
    if n < 0 or n > len(seq):
        raise WindowError(f"scan length {n} exceeds sequence length {len(seq)}")
    arr = np.asarray(list(seq[:n]), dtype=np.int8)
    best = None
    for period in range(1, n // power + 1):
        eq = arr[: n - period] == arr[period:]
        need = (power - 1) * period
        m = eq.shape[0]
        if need > m:
            continue
        c = np.cumsum(eq)
        window = c[need - 1 :] - np.concatenate(([0], c[: m - need]))
        starts = np.flatnonzero(window == need)
        if starts.size:
            cand = (int(starts[0]), period)
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    i, period = best
    return PowerWitness(i, tuple(int(x) for x in arr[i : i + period]))
