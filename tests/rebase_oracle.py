"""The rebase check that re-peels every class from the new base chamber, kept
as a test oracle for coxtile.tiles.rebased_alternating, which reads each
class's flip off the parity of its faces on the chamber's parent chain
instead.  It re-peels with the round-based peeling of peel_oracle.py, so it
reads no class walk.  Used only by tests.
"""

from dataclasses import dataclass

import peel_oracle

from coxtile.walls import WallSet


@dataclass
class RebaseReport:
    chamber: int
    flips: dict  # class -> 0 or 1 parity shift
    is_global_flip: bool
    orientation: list  # wall id -> +1 / -1, None for a wall in no class


def rebase_parity_check(
    wallset: WallSet, class_wids: dict, base_orientation: list, chamber: int
) -> RebaseReport:
    """Re-peel levels from another chamber and compare oriented signs.

    The rebased alternating orientation, carried back to the original
    canonical frame, must differ from the original by a global flip on each
    class; the report records the per-class flip pattern.  It re-peels from
    the chamber, independent of `rebased_alternating`'s closed-form sign.
    """
    crossed = wallset.sep[chamber]
    reor, flips = [None] * len(wallset), {}
    for cls, wids in class_wids.items():
        levels = peel_oracle.peel_levels(wallset, wids, base=chamber)
        for wid, lev in levels.items():
            reor[wid] = (-1 if wid in crossed else 1) * (-1) ** lev
        pattern = {(1 - base_orientation[w] * reor[w]) // 2 for w in levels}
        flips[cls] = pattern.pop() if len(pattern) == 1 else None
    return RebaseReport(chamber, flips, None not in flips.values(), reor)
