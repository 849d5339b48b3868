"""Command-line interface: sequences, balls, colorings, walls, balance,
hyperbolic rendering, and tiling-space comparisons, all as JSON reports.

Exit codes: 0 success, 1 a verification the command performs failed,
2 invalid input or usage, 141 stdout closed by its reader.  Reports are
deterministic: stable field order, no timestamps, rationals serialized as
"p/q" strings.
"""

import argparse
import json
import os
import sys
from collections.abc import Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii as quote

from . import __version__
from .colorings import aperiodicity_report, norm_coloring
from .coxeter import CoxeterSystem, enumerate_ball, load_system
from .errors import CoxtileError, SizeLimitError, ValidationError, WindowError
from .pipeline import (
    Resolution,
    all_plus_resolution,
    alternating_resolution,
    build_walls,
    render_bundle,
)
from .sequences import square_free_prefix, thue_morse_prefix, verify_power_free
from .tiles import classify_balance
from .tiling_space import (
    ChamberTiling,
    patch_as_dict,
    patch_distance,
    restrict_patch,
    translate_compare,
)
from .walls import alternating_palette, class_walk, color_walls

REPORT_VERSION = 1


_ENCODER = json.JSONEncoder(indent=None, separators=(",", ":"), default=str)
_CHUNK_ROWS = 4096  # rows joined per write when a report streams its last value


def emit_report(results, command: str) -> str:
    """The report as one line of JSON, without the newline `_write_report` adds.

    Report dicts are keyed by str (or int, which JSON writes as str(key) too).
    A value JSON has no type for is written as str(value): "p/q" for a
    Fraction, or its integer when the denominator is 1."""
    doc = {"version": REPORT_VERSION, "command": command, "results": results}
    return _ENCODER.encode(doc)


def _write_report(out, results, command: str) -> None:
    """Write emit_report's bytes and a newline.  The last value of `results`,
    a dict in every command, may be an iterator of rows, each already spelled
    as JSON text: the report is then written as emit_report writes it with
    those rows as a list, without holding it whole.  Its head is emit_report
    with the rows [], and the rows go in between, joined by "," _CHUNK_ROWS
    at a time."""
    key = next(reversed(results))
    rows = results[key]
    if not isinstance(rows, Iterator):
        out.write(emit_report(results, command))
    else:
        head = emit_report({**results, key: []}, command)
        out.write(head[:-3])  # through the rows' "["; "]}}" closes them, results and the report
        sep = ""
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            out.write(sep)
            out.write(",".join(chunk))
            sep = ","
        out.write(head[-3:])
    out.write("\n")  # written on its own: appending it would copy the whole report


def _parse_word(system, text) -> tuple:
    if text in ("e", ""):
        return ()
    names = {name: i for i, name in enumerate(system.generators)}
    out = []
    for part in text.replace(",", ".").split("."):
        if part in names:
            out.append(names[part])
        elif part.isascii() and part.isdigit() and int(part) < system.rank:
            out.append(int(part))
        else:
            raise ValidationError(f"unknown generator {part!r}")
    return tuple(out)


def _system_from_arg(value: str) -> CoxeterSystem:
    aliases = {
        "pentagon": lambda: CoxeterSystem.right_angled_polygon(5),
        "hexagon": lambda: CoxeterSystem.right_angled_polygon(6),
        "infinite-dihedral": CoxeterSystem.infinite_dihedral,
    }
    if value in aliases:
        return aliases[value]()
    for prefix, make in (
        ("polygon:", CoxeterSystem.right_angled_polygon),
        ("dihedral:", CoxeterSystem.dihedral),
    ):
        if value.startswith(prefix):
            text = value[len(prefix):]
            try:
                count = int(text)
            except ValueError:
                raise ValidationError(f"{prefix} needs an integer, got {text!r}") from None
            return make(count)
    return load_system(value)


def _palette_from_arg(system, value: str) -> dict:
    if value == "alternating":
        return alternating_palette(system)
    if value == "distinct":
        return {s: system.generators[s] for s in range(system.rank)}
    raise ValidationError(f"unknown palette {value!r}")


# -- subcommands -----------------------------------------------------------------


def _cmd_seq(args, out) -> int:
    kind = args.kind
    prefix = thue_morse_prefix(args.n) if kind == "morse_thue" else square_free_prefix(args.n)
    if args.scan is not None:  # checked with or without --power, before any output
        if args.scan < 0:
            raise WindowError(f"scan length must be nonnegative, got {args.scan}")
        if args.scan > len(prefix):
            raise WindowError(f"scan length {args.scan} exceeds sequence length {len(prefix)}")
    records = [{"kind": kind, "n": args.n, "prefix": prefix}]
    status = 0
    if args.power:
        scan = args.scan if args.scan is not None else args.n
        witness = verify_power_free(prefix, args.power, scan)
        record = {"check": "power_free", "power": args.power, "scan": scan}
        if witness is None:
            record["verdict"] = "free"
        else:
            record["verdict"] = "witness"
            record["position"] = witness.position
            record["word"] = list(witness.word)
            status = 1
        records.append(record)
    for record in records:
        out.write(json.dumps(record) + "\n")
    return status


def _cmd_ball(args, out) -> int:
    system = _system_from_arg(args.system)
    ball = enumerate_ball(system, args.radius)
    results = {
        "system": system.to_dict(),
        "radius": args.radius,
        "size": len(ball),
        "sphere_sizes": ball.sphere_sizes,
        "normal_forms": ball.names() if args.words else None,
    }
    _write_report(out, results, "ball")
    return 0


def _cmd_color(args, out) -> int:
    system = _system_from_arg(args.system)
    radius = max(args.g_range, args.h_range, args.window, 0)  # the least ball holding every g, h and u
    ball = enumerate_ball(system, radius)
    coloring = norm_coloring(ball)
    report = aperiodicity_report(ball, coloring, args.g_range, args.h_range, args.window)
    records = []
    h_inv = {h: ball.inv(h) for h in {h for _g, h in report.records}}
    for (g, h), x in sorted(report.records.items()):
        records.append(
            {
                "g": system.spell(g),
                "h": system.spell(h),
                "witness_x": None if x is None else system.spell(x),
                "radius_used": None if x is None else ball.norm(ball.mul(h_inv[h], x)),
            }
        )
    results = {
        "coloring": "norm",
        "palette_size": len(coloring.palette),
        "g_range": args.g_range,
        "h_range": args.h_range,
        "window": args.window,
        "all_witnessed": report.all_witnessed,
        "pairs": records,
    }
    _write_report(out, results, "color")
    return 0 if report.all_witnessed else 1


def _cmd_walls(args, out) -> int:
    system = _system_from_arg(args.system)
    _, wallset = build_walls(system, args.radius)
    palette = _palette_from_arg(system, args.palette)
    classes = color_walls(wallset, palette)
    count = len(wallset)
    levels, parents = ["null"] * count, [None] * count  # classes that meet get no trees
    if classes.disjoint:  # exact at every radius (see coxtile.walls)
        walk = class_walk(wallset, classes.by_color.values())
        levels, parents = walk.level, walk.parent
    names = wallset.canonical_names()
    for w, name in enumerate(names):  # quoted in place: no second list of 65k strings
        names[w] = quote(name)
    shown = {color: quote(str(color)) for color in classes.by_color}
    walls = (  # rows as the encoder spells them, keys in emit_report's order
        f'{{"canonical_word":{name},"color":{shown[color]},"level":{level},'
        f'"tree_parent":{"null" if p is None else names[p]}}}'
        for name, color, level, p in zip(names, classes.color, levels, parents)
    )
    results = {
        "radius": args.radius,
        "palette": args.palette,
        "wall_count": count,
        "classes_disjoint": classes.disjoint,
        "violations": [
            {"generators": [system.generators[s], system.generators[t]], "order": m}
            for s, t, m in classes.violations
        ],
        "walls": walls,
    }
    _write_report(out, results, "walls")
    return 0 if classes.disjoint else 1


def _cmd_balance(args, out) -> int:
    system = _system_from_arg(args.system)
    ball, wallset = build_walls(system, args.radius)
    palette = _palette_from_arg(system, args.palette)
    make = alternating_resolution if args.orientation == "alternating" else all_plus_resolution
    res: Resolution = make(wallset, palette, refine=args.refine)
    verdict = classify_balance(res.alphabet)
    tiles = [[[str(color), sign] for color, sign in t] for t in res.alphabet.tiles]
    witness = None
    if verdict.witness is not None:
        witness = {str(c): v for c, v in sorted(verdict.witness.weights.items(), key=lambda kv: str(kv[0]))}
    results = {
        "orientation": args.orientation,
        "radius": args.radius,
        "refined": args.refine,
        "alphabet_size": len(res.alphabet),
        "tiles": tiles,
        "verdict": verdict.verdict,
        "witness": witness,
        "tile_sums": verdict.tile_sums,
    }
    _write_report(out, results, "balance")
    return 0


def _cmd_render(args, out) -> int:
    from .hyperbolic import render_svg

    bundle = render_bundle(args.n, args.radius, refine=not args.no_refine, epsilon_factor=args.epsilon)
    svg = render_svg(bundle.tiles, bundle.face_data, stroke_width=args.stroke_width)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
        sys.stderr.write(f"wrote {args.out}\n")
    else:
        out.write(svg)
    return 0


def _cmd_space(args, out) -> int:
    from .tiles import build_alphabet, rebased_alternating

    system = CoxeterSystem.right_angled_polygon(2 * args.n)
    ball, wallset = build_walls(system, args.radius)
    res = alternating_resolution(wallset, alternating_palette(system), refine=not args.no_refine)
    tiling = ChamberTiling.from_alphabet(ball, res.alphabet)
    gs = (
        [_parse_word(system, args.g)]
        if args.g
        else ball.words[1:1 + sum(ball.sphere_sizes[1:3])]  # ids follow ShortLex: norms 1 and 2
    )
    comparisons = []
    for g in gs:
        v = translate_compare(tiling, g, args.depth)
        comparisons.append(
            {
                "g": system.spell(g),
                "verdict": "fixed" if v.fixed else "differs",
                "first_depth": v.first_depth,
            }
        )
    base = restrict_patch(tiling, args.depth)
    distances = []
    for g in gs:
        if system.norm(g) > 1:
            continue
        ori = rebased_alternating(wallset, res.class_wids, ball.id_of(g))
        alpha = build_alphabet(wallset, res.wall_colors, ori)
        other = ChamberTiling.from_alphabet(ball, alpha)
        d = patch_distance(base, restrict_patch(other, args.depth))
        distances.append({"base": system.spell(g), "distance": d})
    results = {
        "n": args.n,
        "radius": args.radius,
        "depth": args.depth,
        "base_patch": patch_as_dict(base, system),
        "translate_comparisons": comparisons,
        "rebased_patch_distances": distances,
    }
    _write_report(out, results, "space")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxtile",
        description="aperiodic colorings and balanced tilings of Coxeter chamber complexes",
    )
    parser.add_argument("--version", action="version", version=f"coxtile {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="sequence prefixes and power-freeness verdicts")
    p.add_argument("--kind", choices=["morse_thue", "ternary"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--power", type=int, choices=[2, 3])
    p.add_argument("--scan", type=int)

    p = sub.add_parser("ball", help="ball enumeration statistics")
    p.add_argument("--system", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--words", action="store_true", help="include normal forms")

    p = sub.add_parser("color", help="norm coloring and aperiodicity report")
    p.add_argument("--system", required=True)
    p.add_argument("--g-range", type=int, default=1)
    p.add_argument("--h-range", type=int, default=1)
    p.add_argument("--window", type=int, default=2)

    p = sub.add_parser("walls", help="wall classes, levels and trees")
    p.add_argument("--system", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--palette", default="distinct")

    p = sub.add_parser("balance", help="tile alphabet and balance verdict")
    p.add_argument("--system", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--orientation", choices=["alternating", "all-plus"], default="alternating")
    p.add_argument("--palette", default="distinct")
    p.add_argument("--refine", action="store_true", help="refine classes by tree colors")

    p = sub.add_parser("render", help="SVG of the deformed hyperbolic tiling")
    p.add_argument("--n", type=int, required=True, help="half the polygon side count")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--stroke-width", type=float, default=0.004)
    p.add_argument("--out")

    p = sub.add_parser("space", help="patch distances and translate comparisons")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--g", help="compare one translate (word like s0.s1)")
    p.add_argument("--no-refine", action="store_true")

    return parser


_COMMANDS = {
    "seq": _cmd_seq,
    "ball": _cmd_ball,
    "color": _cmd_color,
    "walls": _cmd_walls,
    "balance": _cmd_balance,
    "render": _cmd_render,
    "space": _cmd_space,
}


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = _COMMANDS[args.command](args, out)
        out.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away: not bad input.  Quiet the interpreter's final
        # flush and exit as a shell reports a death by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (CoxtileError, OSError) as exc:
        flags = ""  # the library names no flag; a ball cap's advice gets those that set the radius
        if isinstance(exc, SizeLimitError):
            color = args.command == "color"
            flags = " (the largest of --g-range, --h-range and --window)" if color else " (--radius)"
        sys.stderr.write(f"error: {exc}{flags}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
