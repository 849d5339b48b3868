import ast
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import forest_oracle
import pytest
from cli_report import parse_report

from coxtile.cli import build_parser, emit_report, main
from coxtile.coxeter import CoxeterSystem, enumerate_ball
from coxtile.errors import StructureError
from coxtile.ratlp import LPResult
from coxtile.walls import color_walls, enumerate_walls


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def test_seq_ternary_prefix():
    code, out = run(["seq", "--kind", "ternary", "--n", "9"])
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["prefix"] == [0, 2, 1, 0, 1, 2, 0, 2, 1]


def test_seq_power_free_verdicts():
    code, out = run(["seq", "--kind", "morse_thue", "--n", "512", "--power", "3"])
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[1]["verdict"] == "free"
    # squares exist in the Thue-Morse word: verification failure exits 1
    code, out = run(["seq", "--kind", "morse_thue", "--n", "64", "--power", "2"])
    assert code == 1
    assert json.loads(out.splitlines()[1])["verdict"] == "witness"


def test_ball_subcommand_builtin_alias():
    code, out = run(["ball", "--system", "infinite-dihedral", "--radius", "6"])
    assert code == 0
    doc = parse_report(out)
    assert doc["results"]["sphere_sizes"] == [1] + [2] * 6


def test_ball_subcommand_json_file(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"generators": ["s", "t"], "matrix": [[1, 3], [3, 1]]}))
    code, out = run(["ball", "--system", str(path), "--radius", "4"])
    assert code == 0
    assert parse_report(out)["results"]["size"] == 6


def test_color_subcommand_all_witnessed():
    code, out = run(
        ["color", "--system", "pentagon", "--g-range", "1", "--h-range", "1", "--window", "2"]
    )
    assert code == 0
    doc = parse_report(out)
    assert doc["results"]["all_witnessed"] is True
    assert doc["results"]["palette_size"] == 9


def test_walls_subcommand():
    code, out = run(["walls", "--system", "hexagon", "--radius", "3", "--palette", "alternating"])
    assert code == 0
    doc = parse_report(out)
    res = doc["results"]
    assert res["classes_disjoint"] is True
    assert all(w["color"] in ("a", "b") for w in res["walls"])
    # every wall's level is exact at every radius, the boundary's too
    levels = [w["level"] for w in res["walls"]]
    assert levels and all(type(l) is int and l >= 1 for l in levels)


def test_walls_violation_exit_code(tmp_path):
    path = tmp_path / "d3.json"
    path.write_text(json.dumps({"generators": ["s", "t"], "matrix": [[1, 3], [3, 1]]}))
    code, out = run(["walls", "--system", str(path), "--radius", "3", "--palette", "alternating"])
    assert code == 1
    assert parse_report(out)["results"]["classes_disjoint"] is False


TRIANGLE_237 = '{"generators":["a","b","c"],"matrix":[[1,2,3],[2,1,7],[3,7,1]]}'
# a 4-cycle a-b-d-c-a of commuting pairs, with a-d and b-c of infinite order:
# the alternating palette gives the commuting a and c one color
SHARED_COLOR_SQUARE = '{"generators":["a","b","c","d"],"matrix":[[1,2,2,0],[2,1,0,2],[2,0,1,2],[0,2,2,1]]}'


@pytest.mark.parametrize(
    "system, palette, pair, order",
    [
        (TRIANGLE_237, "distinct", ("a", "c"), 3),
        ('{"generators":["a","b","c"],"matrix":[[1,4,4],[4,1,4],[4,4,1]]}', "distinct", ("a", "b"), 4),
        ('{"generators":["a","b","c"],"matrix":[[1,3,3],[3,1,0],[3,0,1]]}', "distinct", ("a", "b"), 3),
        ('{"generators":["a","b","c"],"matrix":[[1,2,2],[2,1,5],[2,5,1]]}', "distinct", ("b", "c"), 5),
        (SHARED_COLOR_SQUARE, "alternating", ("a", "c"), 2),
    ],
    ids=["(2,3,7)", "(4,4,4)", "(3,3,inf)", "one-order-5", "shared-color-square"],
)
def test_balance_refuses_an_invalid_palette_at_radius_1(system, palette, pair, order, capsys):
    # the radius-1 ball holds no two walls of one color that meet, yet the
    # Coxeter matrix shows that such walls cross: one error line names the pair
    code, out = run(["balance", "--system", system, "--radius", "1", "--palette", palette])
    assert code == 2 and out == ""
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (f"error: palette invalid: walls of one color cross in the residue of "
                    f"generators {pair[0]!r} and {pair[1]!r}, of order {order}")


@pytest.mark.parametrize("radius", [0, 1])
def test_walls_lists_the_generator_pairs_of_an_invalid_palette_at_every_radius(radius):
    code, out = run(["walls", "--system", TRIANGLE_237, "--radius", str(radius), "--palette", "distinct"])
    assert code == 1
    assert ('"classes_disjoint":false,"violations":[{"generators":["a","c"],"order":3},'
            '{"generators":["b","c"],"order":7}],') in out
    assert parse_report(out)["results"]["wall_count"] == 3 * radius  # every wall still has its row


def test_walls_refuses_commuting_generators_of_one_color_at_radius_0():
    code, out = run(["walls", "--system", SHARED_COLOR_SQUARE, "--radius", "0", "--palette", "alternating"])
    assert code == 1
    results = parse_report(out)["results"]
    assert results["classes_disjoint"] is False
    assert results["violations"] == [{"generators": ["a", "c"], "order": 2},
                                     {"generators": ["b", "d"], "order": 2}]


def test_balance_pentagon_alternating():
    code, out = run(
        ["balance", "--system", "pentagon", "--radius", "5", "--orientation", "alternating"]
    )
    assert code == 0
    doc = parse_report(out)
    assert doc["results"]["verdict"] == "strictly_balanced"


def test_balance_hexagon_all_plus_witness():
    code, out = run(
        [
            "balance",
            "--system",
            "hexagon",
            "--radius",
            "4",
            "--orientation",
            "all-plus",
            "--palette",
            "alternating",
        ]
    )
    assert code == 0
    doc = parse_report(out)
    assert doc["results"]["verdict"] == "unbalanced"
    assert doc["results"]["witness"] is not None
    from fractions import Fraction

    assert all(Fraction(s) > 0 for s in doc["results"]["tile_sums"])


def test_render_radius0_single_polygon():
    code, out = run(["render", "--n", "3", "--radius", "0"])
    assert code == 0
    assert out.count("<g ") == 1
    assert out.startswith("<?xml")


def test_render_deterministic_bytes(tmp_path):
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["render", "--n", "3", "--radius", "2", "--out", str(f1)]) == 0
    assert main(["render", "--n", "3", "--radius", "2", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_space_subcommand():
    code, out = run(["space", "--n", "3", "--radius", "5", "--depth", "3"])
    assert code == 0
    doc = parse_report(out)
    comps = doc["results"]["translate_comparisons"]
    assert comps and all(c["verdict"] == "differs" for c in comps)
    dists = doc["results"]["rebased_patch_distances"]
    assert dists and all(d["distance"] != "0" for d in dists)


def test_reports_round_trip():
    code, out = run(["ball", "--system", "pentagon", "--radius", "3"])
    doc = parse_report(out)
    again = json.dumps(doc, indent=None, separators=(",", ":")) + "\n"
    assert again == out


def test_reports_byte_identical_across_runs():
    a = run(["color", "--system", "pentagon", "--window", "1"])
    b = run(["color", "--system", "pentagon", "--window", "1"])
    assert a == b


def test_unknown_flag_exits_2(capsys):
    code, _ = run(["seq", "--kind", "ternary", "--n", "5", "--bogus"])
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    code, _ = run(["frobnicate"])
    assert code == 2


def test_bad_system_file_exits_2():
    code, _ = run(["ball", "--system", "/nonexistent/nope.json", "--radius", "2"])
    assert code == 2


def test_emit_report_empty():
    text = emit_report([], "demo")
    doc = parse_report(text)
    assert doc["results"] == [] and doc["version"] == 1


def test_emit_report_matches_the_jsonable_oracle():
    # the json.dumps hook against the pre-walk it replaced, byte for byte
    from jsonable_oracle import _jsonable

    plain = {"walls": [{"wid": 0, "edges": [[0, 1]], "level": None}], "ok": True}
    assert _jsonable(plain) is plain
    mixed = {
        "a": [1, Fraction(1, 2), Fraction(-4, 2), Fraction(0)],
        3: (4, 5, (Fraction(7, 3), [None, 1.5, True])),
        "nested": [[{"k": Fraction(5, 10), 0: [("x", -1)]}], []],
        "other": [{1, 2}, complex(1, 2)],
    }
    for results in (plain, mixed, [], [mixed, (plain,)], Fraction(3, 4)):
        oracle = json.dumps({"version": 1, "command": "demo", "results": _jsonable(results)},
                            separators=(",", ":"))
        assert emit_report(results, "demo") == oracle
    assert parse_report(emit_report(mixed, ""))["results"] == {
        "a": [1, "1/2", "-2", "0"],
        "3": [4, 5, ["7/3", [None, 1.5, True]]],
        "nested": [[{"k": "1/2", "0": [["x", -1]]}], []],
        "other": ["{1, 2}", "(1+2j)"],
    }


def _run_python(args, stdout=subprocess.PIPE, **env):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        timeout=120,
    )


def _run_cli_process(argv, **env):
    return _run_python(["-m", "coxtile.cli", *argv], **env)


def test_runtime_loads_no_numpy():
    # numpy is a test dependency only: importing the package and rendering a
    # tiling must not load it
    code = (
        "import io, sys, coxtile, coxtile.cli, coxtile.pipeline, coxtile.hyperbolic\n"
        "assert coxtile.cli.main(['render', '--n', '3', '--radius', '1'], out=io.StringIO()) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    run = _run_python(["-c", code])
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize(
    "argv, env",
    [
        (["ball", "--system", "polygon:x", "--radius", "2"], {}),
        (["ball", "--system", "dihedral:x", "--radius", "2"], {}),
        (["ball", "--system", "pentagon", "--radius", "2"], {"COXTILE_BALL_CAP": "abc"}),
        (["ball", "--system", "hexagon", "--radius", "0"], {"COXTILE_BALL_CAP": "0"}),
        (["ball", "--system", "hexagon", "--radius", "0"], {"COXTILE_BALL_CAP": "-5"}),
        (["space", "--n", "3", "--radius", "3", "--depth", "-1"], {}),
        (["render", "--n", "3", "--radius", "-1"], {}),
        (["seq", "--kind", "ternary", "--n", "10", "--scan", "-3"], {}),
        (["seq", "--kind", "ternary", "--n", "10", "--scan", "11"], {}),
        (["render", "--n", "3", "--radius", "5"], {}),
        (["render", "--n", "4", "--radius", "4"], {}),
        (["render", "--n", "3", "--radius", "1", "--epsilon", "1e6"], {}),
        (["render", "--n", "3", "--radius", "1", "--epsilon", "50"], {}),
        (["render", "--n", "3", "--radius", "2", "--epsilon", "10"], {}),
        (["render", "--n", "3", "--radius", "1", "--epsilon", "nan"], {}),
        (["render", "--n", "3", "--radius", "1", "--stroke-width", "-1"], {}),
        (["color", "--system", "hexagon", "--window", "-1"], {}),
        (["color", "--system", "hexagon", "--g-range", "-1"], {}),
        (["balance", "--system", "hexagon", "--radius", "0"], {}),
        (["ball", "--words", "--radius", "2", "--system",
          '{"generators":["a","a.a"],"matrix":[[1,0],[0,1]]}'], {}),
        (["ball", "--words", "--radius", "2", "--system",
          '{"generators":["","e"],"matrix":[[1,0],[0,1]]}'], {}),
        (["walls", "--radius", "2", "--system",
          '{"generators":["a,b","b"],"matrix":[[1,0],[0,1]]}'], {}),
    ],
    ids=["polygon", "dihedral", "ball-cap-env", "ball-cap-zero", "ball-cap-negative",
         "space-negative-depth", "render-negative-radius",
         "seq-negative-scan-without-power", "seq-long-scan-without-power", "render-tick-overflow",
         "render-tick-overflow-n4", "render-epsilon-overflow", "render-degenerate-tangent",
         "render-not-simple", "render-epsilon-nan",
         "render-negative-stroke", "color-negative-window", "color-negative-g-range",
         "balance-radius-0",
         "generator-name-with-a-dot", "generator-names-empty-and-e", "generator-name-with-a-comma"],
)
def test_bad_input_exits_2_with_one_error_line(argv, env):
    proc = _run_cli_process(argv, **env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_color_takes_no_radius():
    # color enumerates the ball of its largest range, so it takes no radius
    code, _ = run(["color", "--system", "pentagon", "--radius", "3"])
    assert code == 2
    args = build_parser().parse_args(["color", "--system", "pentagon"])
    assert vars(args) == {"command": "color", "system": "pentagon", "g_range": 1, "h_range": 1, "window": 2}


def test_render_takes_no_deform_flag():
    # --epsilon 0 draws the undeformed tiles, so render has six settable values
    code, _ = run(["render", "--n", "3", "--radius", "1", "--no-deform"])
    assert code == 2
    args = build_parser().parse_args(["render", "--n", "3", "--radius", "1"])
    assert vars(args) == {"command": "render", "n": 3, "radius": 1, "epsilon": 0.05, "no_refine": False,
                          "stroke_width": 0.004, "out": None}


def test_color_ball_cap_names_the_range_flags():
    # the derived radius-6 ball passes the cap at radius 5: the one error line
    # says how far enumeration got and names the flags that set the radius
    proc = _run_cli_process(["color", "--system", "hexagon", "--window", "6"], COXTILE_BALL_CAP="1000")
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ball cap 1000 exceeded at radius 5 of 6; radii 0..4 are complete")
    assert "--g-range, --h-range and --window" in line
    assert "--radius" not in line


def test_only_the_cli_names_cli_flags():
    # a library error says what to change; cli.main appends the flag that
    # changes it, so no message raised outside cli.py spells a flag
    spelled = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "coxtile").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                spelled += [f"{path.name}:{lit.lineno}" for lit in ast.walk(node.exc)
                            if isinstance(lit, ast.Constant) and isinstance(lit.value, str) and "--" in lit.value]
    assert spelled == []


def test_balance_radius_0_says_what_to_enlarge():
    proc = _run_cli_process(["balance", "--system", "hexagon", "--radius", "0"])
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: alphabet is empty: the radius-0 ball has no interior chamber; "
        "a radius of at least 1 gives e its tile\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["walls", "--system", "hexagon", "--radius", "6", "--palette", "alternating"],
        ["ball", "--system", "hexagon", "--radius", "7", "--words"],
        ["ball", "--system", "pentagon", "--radius", "2", "--words"],
    ],
    ids=["walls-streamed", "ball-words", "ball-words-buffered"],
)
def test_closed_stdout_exits_141_quietly(argv):
    # a reader that went away, as in `coxtile walls ... | head -c 10`, is not
    # bad input.  The small report fits the stdout buffer, so it fails at the
    # flush main makes, not at the interpreter's exit.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli_process(argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_unwritable_out_path_exits_2(tmp_path):
    code, out = run(["render", "--n", "3", "--radius", "0", "--out", str(tmp_path / "missing" / "t.svg")])
    assert code == 2 and out == ""


@pytest.mark.parametrize("n", [5, 6])
def test_render_radius_4_stops_at_the_tick(n, capsys):
    # the decagon and the 12-gon deform at R=4; the tick is what leaves the floats
    code, out = run(["render", "--n", str(n), "--radius", "4"])
    assert code == 2 and out == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: tick of chamber ")


def test_render_refuses_the_square_before_enumerating(capsys):
    # no right-angled 4-gon exists in the hyperbolic plane, so --n 2 is
    # refused before any ball is built, not when the ball outgrows its cap
    code, out = run(["render", "--n", "2", "--radius", "400"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.splitlines() == [
        "error: no right-angled regular 4-gon exists in the hyperbolic plane"
    ]


@pytest.mark.parametrize("g", ["²", "٣", "s0.²"], ids=["superscript", "arabic-indic", "after-a-name"])
def test_space_rejects_digits_that_are_not_ascii(g):
    # str.isdigit accepts these: int() then raises on the superscript and
    # reads the Arabic-Indic three as generator 3
    proc = _run_cli_process(["space", "--n", "3", "--radius", "3", "--depth", "1", "--g", g])
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unknown generator ")


def test_ball_cap_exits_2_naming_how_far_it_got():
    matrix = [[1, 3, 3], [3, 1, 0], [3, 0, 1]]
    triangle = json.dumps({"generators": ["a", "b", "c"], "matrix": matrix})
    argv = ["ball", "--system", triangle, "--radius", "30"]
    proc = _run_cli_process(argv, COXTILE_BALL_CAP="1000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    # spheres 1, 3, 6, 10, 16, ... sum to 748 at radius 10; radius 11 overflows
    assert "radius 11 of 30" in lines[0] and "0..10" in lines[0]
    assert "[1, 3, 6, 10, 16, 26, 42, 68, 110, 178, 288]" in lines[0]
    assert "COXTILE_BALL_CAP" in lines[0] and "--radius" in lines[0]


def test_system_path_that_is_a_directory_exits_2(tmp_path):
    code, out = run(["ball", "--system", str(tmp_path), "--radius", "2"])
    assert code == 2 and out == ""


def test_system_file_that_is_not_text_exits_2(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    code, out = run(["ball", "--system", str(path), "--radius", "2"])
    assert code == 2 and out == ""


def _walls_with_corrupt_faces(ball):
    ws = enumerate_walls(ball)
    # the edge {e, s0} at wall 0's near chamber claims another wall of wall 0's
    # color, so no corner sees a clash but s0's region is not beyond wall 0
    n = ball.system.rank
    other = next(w.wid for w in ws.walls[1:] if w.generator == 0)
    ws.faces[0] = ws.faces[ball.nbr[0] * n] = other
    return ws


def test_corrupt_faces_trip_the_forest_oracle_edge_check():
    # the walk trusts the tables it climbs, so the corrupted table reaches the
    # walls report; the class forest's edge check, kept as a test oracle,
    # still rejects wall 0's class
    system = CoxeterSystem.right_angled_polygon(6)
    ws = _walls_with_corrupt_faces(enumerate_ball(system, 2))
    classes = color_walls(ws, dict(enumerate(system.generators)))  # the walls report's default palette
    with pytest.raises(StructureError, match="^separators of wall 0 are not nested; class is not disjoint$"):
        forest_oracle.class_trees(ws, classes.by_color.values())


def _one_colour_walls_reported_disjoint(wallset, palette):
    # every wall in one class, with the Coxeter matrix's verdict dropped: the
    # class walk's own certificate must still refuse the class
    classes = color_walls(wallset, dict.fromkeys(palette, "x"))
    classes.violations.clear()
    return classes


@pytest.mark.parametrize(
    "target, fake, argv",
    [
        (
            "coxtile.coxeter.CoxeterSystem.__post_init__",
            lambda self: None,  # an asymmetric matrix reaches the coset walks
            ["ball", "--system", '{"generators":["s","t"],"matrix":[[1,2],[3,1]]}', "--radius", "3"],
        ),
        (
            "coxtile.tiles.solve_lp",
            lambda c, A, b: LPResult("unbounded", None, None),  # the boxed positivity LP
            ["balance", "--system", "hexagon", "--radius", "3", "--palette", "alternating"],
        ),
        (
            "coxtile.cli.color_walls",
            _one_colour_walls_reported_disjoint,
            ["walls", "--system", "hexagon", "--radius", "2"],
        ),
    ],
    ids=["norm-parity", "lp-unbounded", "uncertified-class"],
)
def test_broken_invariant_exits_2_with_one_error_line(monkeypatch, capsys, target, fake, argv):
    monkeypatch.setattr(target, fake)
    code, out = run(argv)
    assert code == 2 and out == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_render_has_no_seed_flag():
    code, out = run(["render", "--n", "3", "--radius", "0", "--seed", "1"])
    assert code == 2 and out == ""
