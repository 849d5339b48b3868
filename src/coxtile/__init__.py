"""Aperiodic colorings of Coxeter groups and balanced tilings of their
chamber complexes, with exact balance classification and a hyperbolic-plane
renderer."""

__version__ = "0.1.0"

from .coxeter import (
    Ball,
    CoxeterSystem,
    enumerate_ball,
    load_system,
    reflection_cocycle,
)
from .colorings import (
    GroupColoring,
    aperiodicity_report,
    norm_coloring,
)
from .sequences import (
    square_free_prefix,
    thue_morse_prefix,
    verify_power_free,
)
from .tiles import (
    TileAlphabet,
    WeightFunction,
    build_alphabet,
    classify_balance,
    orient_all_plus,
    orient_alternating,
)
from .tiling_space import ChamberTiling, patch_distance, restrict_patch, translate_compare
from .walls import (
    WallSet,
    build_wall_tree,
    color_walls,
    enumerate_walls,
    peel_levels,
    wall_coloring,
)

__all__ = [
    "Ball",
    "ChamberTiling",
    "CoxeterSystem",
    "GroupColoring",
    "TileAlphabet",
    "WallSet",
    "WeightFunction",
    "aperiodicity_report",
    "build_alphabet",
    "build_wall_tree",
    "classify_balance",
    "color_walls",
    "enumerate_ball",
    "enumerate_walls",
    "load_system",
    "norm_coloring",
    "orient_all_plus",
    "orient_alternating",
    "patch_distance",
    "peel_levels",
    "reflection_cocycle",
    "restrict_patch",
    "square_free_prefix",
    "thue_morse_prefix",
    "translate_compare",
    "verify_power_free",
    "wall_coloring",
]
