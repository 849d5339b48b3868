"""The `walls` report as the CLI built it while its rows were dicts, kept as a
test oracle: one dict per wall from WallSet.canonical_names, color_walls and
the levels and tree parents of class_walk, and the whole report encoded by
emit_report.  Used only by tests.
"""

from coxtile.cli import _palette_from_arg, _system_from_arg, emit_report
from coxtile.pipeline import build_walls
from coxtile.walls import class_walk, color_walls


def walls_report(args) -> str:
    """The report's bytes, newline included, for parsed `walls` arguments."""
    system = _system_from_arg(args.system)
    _, wallset = build_walls(system, args.radius)
    classes = color_walls(wallset, _palette_from_arg(system, args.palette))
    count = len(wallset)
    levels = parents = [None] * count
    if classes.disjoint:
        walk = class_walk(wallset, classes.by_color.values())
        levels, parents = walk.level, walk.parent
    names = wallset.canonical_names()
    rows = [
        {
            "canonical_word": name,
            "color": str(color),
            "level": level,
            "tree_parent": None if p is None else names[p],
        }
        for name, color, level, p in zip(names, classes.color, levels, parents)
    ]
    results = {
        "radius": args.radius,
        "palette": args.palette,
        "wall_count": count,
        "classes_disjoint": classes.disjoint,
        "violations": [
            {"generators": [system.generators[s], system.generators[t]], "order": m}
            for s, t, m in classes.violations
        ],
        "walls": rows,
    }
    return emit_report(results, "walls") + "\n"
