"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Part 1 plants a wrong result in front of every independent check and
requires the check to reject it (and to accept the untouched result).
Part 2 runs every workload at tiny sizes, untraced and traced, and requires
every metric BENCHMARK.json names to be printed with its unit.  Exits 1 on
the first failure.
"""

import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W  # noqa: E402
from oracles import CheckFailed  # noqa: E402

TINY = W.SIZES["tiny"]


def expect_pass(label, check, *args):
    try:
        check(*args)
    except CheckFailed as exc:
        raise SystemExit(f"FAIL {label}: the true result was rejected: {exc}")


def expect_reject(label, check, *args):
    try:
        check(*args)
    except CheckFailed as exc:
        print(f"ok   {label}: rejected ({exc})")
        return
    raise SystemExit(f"FAIL {label}: a planted wrong result was accepted")


def planted(label, check, good, bad):
    expect_pass(label, check, good)
    expect_reject(label, check, bad)


class FlippedSeparation:
    """A wallset whose separation answers are all wrong."""

    def __init__(self, wallset):
        self._inner = wallset

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def separates(self, wid, a, b):
        return not self._inner.separates(wid, a, b)


def part_one():
    rng = lambda: random.Random(7)  # noqa: E731
    hexagon = W.coxeter.CoxeterSystem.right_angled_polygon(6)
    triangle = W.coxeter.CoxeterSystem(("s0", "s1", "s2"), W.TRIANGLE)

    # sphere sizes: growth series and pinned exact BFS, each off by one
    ball = W.coxeter.enumerate_ball(hexagon, 4)
    bad = copy.copy(ball)
    bad.sphere_sizes = list(ball.sphere_sizes)
    bad.sphere_sizes[3] += 1
    series = W.oracles.ra_sphere_sizes(W.HEXAGON, 4)
    planted("growth-series sphere sizes", lambda b: W.check_spheres(b, series), ball, bad)
    sizes, _ = W.oracles.exact_lengths(W.TRIANGLE, 10)
    if sizes != W.TRIANGLE_SPHERES[:11]:
        raise SystemExit("FAIL pinned (3,3,inf) spheres disagree with a fresh exact search")
    tball = W.coxeter.enumerate_ball(triangle, 10)
    tbad = copy.copy(tball)
    tbad.sphere_sizes = list(tball.sphere_sizes)
    tbad.sphere_sizes[-1] -= 1
    planted("pinned (3,3,inf) sphere sizes", lambda b: W.check_spheres(b, W.TRIANGLE_SPHERES), tball, tbad)

    # separation against the component oracle
    _, wallset = W.pipeline.build_walls(hexagon, 4)
    planted(
        "separation sample",
        lambda ws: W.check_separation(ws, rng(), 4),
        wallset,
        FlippedSeparation(wallset),
    )

    # walls report: reflection words, levels and tree parents
    run = W.run_cli(["walls", "--system", "hexagon", "--radius", "4", "--palette", "alternating"])
    planted("walls report", lambda r: W.check_walls_report(r, TINY, rng()), run, _walls_with_bad_word(run))
    results = json.loads(run.text)["results"]
    bad_levels = copy.deepcopy(results)
    deep = next(w for w in bad_levels["walls"] if w["level"] == 2)
    deep["level"] = 3
    planted("wall levels and parents", W.check_wall_levels, results, bad_levels)
    planted("exit code", W.check_exit, W.CliRun(0, "", []), W.CliRun(1, "", []))

    # balance: witness with flipped signs; strict balance the grid oracle refutes
    result = W._resolution_job({"system": hexagon, "palette": W.walls.alternating_palette(hexagon)}, 2, True)()
    _, alphabet, verdict = result
    flipped = copy.deepcopy(verdict)
    flipped.witness.weights = {c: -v for c, v in verdict.witness.weights.items()}
    planted("balance witness re-sum", W.check_resolution, result, (result[0], alphabet, flipped))
    tiles = [[("a", 1), ("b", 1)], [("a", 1), ("b", -1)]]
    expect_reject(
        "strict balance vs grid oracle",
        W.oracles.check_verdict, tiles, "strictly_balanced", None, [],
        W.grid_refutes_strict_balance,
    )
    expect_pass(
        "unbalanced witness on the same tiles",
        W.oracles.check_verdict, tiles, "unbalanced", {"a": 1}, [1, 1],
    )

    # tiling space: translate verdicts, rebase flips and patch distances
    inputs = W.make_inputs("tiling-render", 3, 0, "tiny")
    space = W._space(inputs, TINY)
    wrong_depth = copy.copy(space)
    g, v = space.translates[0]
    wrong_depth.translates = [(g, W.tiling_space.TranslateVerdict(not v.fixed, None if not v.fixed else 0))]
    planted("translate verdict", W.check_space, space, wrong_depth)
    wrong_distance = copy.copy(space)
    ori, labels, d = space.rebased[0]
    wrong_distance.rebased = [(ori, labels, d + Fraction(1, 64))]
    planted("patch distance", W.check_space, space, wrong_distance)

    # rendering: one tile missing from the SVG
    svg = W.run_cli(["render", "--n", "3", "--radius", "2"])
    cut = svg.text.index("<g ")
    missing = W.CliRun(0, svg.text[:cut] + svg.text[svg.text.index("</g>", cut) + 5 :], [])
    planted("rendered tile count", lambda r: W.check_svg(r, 2), svg, missing)

    # (3,3,inf): coloring witnesses, cocycles, ternary prefix
    report = W._coloring(triangle, 6, 2, 2, 2)
    dropped = copy.deepcopy(report)
    pair = next(p for p, x in report.records.items() if x is not None)
    dropped.records[pair] = None
    planted("aperiodicity witnesses", W.check_coloring, report, dropped)
    word = (0, 1, 2, 1, 0, 2, 1)
    cocycle = [(word, W.coxeter.reflection_cocycle(triangle, word))]
    entries, reduced = cocycle[0][1]
    swapped = [(word, (entries[1:2] + entries[:1] + entries[2:], reduced))]
    planted("reflection cocycle", W.check_cocycles, cocycle, swapped)
    seq = W.run_cli(["seq", "--kind", "ternary", "--n", "50", "--power", "2"])
    head, verdict_line = seq.text.splitlines()
    prefix = json.loads(head)
    prefix["prefix"][17] = (prefix["prefix"][17] + 1) % 3
    bad_seq = W.CliRun(0, json.dumps(prefix) + "\n" + verdict_line + "\n", [])
    planted("ternary prefix", lambda r: W.check_seq(r, 50), seq, bad_seq)


def _walls_with_bad_word(run):
    doc = json.loads(run.text)
    for w in doc["results"]["walls"]:
        if w["canonical_word"].count(".") >= 2:
            w["canonical_word"] = w["canonical_word"].rsplit(".", 2)[0]
    return W.CliRun(run.code, json.dumps(doc), list(run.built))


def part_two():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--seed", "5",
             "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            raise SystemExit(f"FAIL tiny run with --trace {trace}:\n{proc.stderr}")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"FAIL tiny run with --trace {trace} has failing jobs")
        for metric in bench[key]:
            needle = f"  {metric['name']} = "
            shown = [ln for ln in lines if ln.startswith(needle) and ln.endswith(" " + metric["unit"])]
            if len(shown) != len(W.WORKLOADS):
                raise SystemExit(f"FAIL {metric['name']} [{metric['unit']}] printed {len(shown)} times")
        print(f"ok   tiny run, --trace {trace}: all {len(bench[key])} {key} metrics printed with units")
        if not any(ln.startswith("  failed_share = ") for ln in lines):
            raise SystemExit("FAIL failed_share is not printed")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "coxtile", "__init__.py")):
        sys.stderr.write("error: run from the repository root\n")
        return 2
    part_one()
    part_two()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
