"""Aperiodic colorings of Coxeter groups and balanced tilings of their
chamber complexes, with exact balance classification and a hyperbolic-plane
renderer."""

__version__ = "0.1.0"

from .coxeter import (
    Ball,
    CoxeterSystem,
    displacement_exponent,
    enumerate_ball,
    load_system,
    radial_segment,
    reflection_cocycle,
)
from .colorings import (
    GroupColoring,
    aperiodicity_report,
    norm_coloring,
    product_coloring,
    radial_claim_check,
    transfer_from_subgroup,
    transfer_to_subgroup,
    tree_norm_coloring,
)
from .lattice import ZLattice
from .sequences import (
    square_free_prefix,
    squares_limit_defect,
    thue_morse_prefix,
    verify_power_free,
    z_color,
    z_witness,
)
from .tiles import (
    TileAlphabet,
    WeightFunction,
    build_alphabet,
    classify_balance,
    orient_all_plus,
    orient_alternating,
    verify_unbalanced_witness,
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
    "ZLattice",
    "aperiodicity_report",
    "build_alphabet",
    "build_wall_tree",
    "classify_balance",
    "color_walls",
    "displacement_exponent",
    "enumerate_ball",
    "enumerate_walls",
    "load_system",
    "norm_coloring",
    "orient_all_plus",
    "orient_alternating",
    "patch_distance",
    "peel_levels",
    "product_coloring",
    "radial_claim_check",
    "radial_segment",
    "reflection_cocycle",
    "restrict_patch",
    "square_free_prefix",
    "squares_limit_defect",
    "thue_morse_prefix",
    "transfer_from_subgroup",
    "transfer_to_subgroup",
    "translate_compare",
    "tree_norm_coloring",
    "verify_power_free",
    "verify_unbalanced_witness",
    "wall_coloring",
    "z_color",
    "z_witness",
]
