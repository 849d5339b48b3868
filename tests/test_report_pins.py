"""Report bytes pinned by sha256 across the flat chamber-graph core, and the
benchmark's smoke runs.

The pins were recorded before Ball.edges became a view over Ball.nbr and
WallSet.edge_wall gave way to WallSet.faces: the unrefined hexagon R=7
balance reports for both orientations, and the (3,3,inf) R=10 `walls` report
with one color per generator.  The (2,3,7) R=12 `walls` report was pinned
while braid closure still spelled its canonical words, so it checks the
descent engine byte for byte on a system with cyclotomic roots.  The
hexagon R=8 `walls` report, the rank-4 (inf, 7, 8) `color` report and the
`render --n 3 --radius 4` SVG were pinned before levels and trees became one
peeling per class, before `aperiodicity_report` inverted each g once, and
before vertex identities were read off Ball.nbr.  Both `color` pins were
recorded with a `--radius` equal to their largest range, before `color`
dropped that option and enumerated the ball of its largest range itself.
The three `seq` reports were pinned while a numpy cumulative sum scanned every period in full, before
the anchored-run scan.  The two `space` reports and the other three `render`
SVGs (unrefined, undeformed, and the octagon) were pinned while tile signs
came from `WallSet.separates` probes and vertex geometry from numpy 3-vectors,
before both were read off descents and plain floats.  Every pin predates the
per-class region trees that replaced the stored per-chamber `WallSet.sep`
frozensets, and every pin predates walls read off dihedral coset walks: the
rank-4 {5,6,7,8} R=6 `walls` report was recorded while walls were still keyed
by their exact roots.  The undeformed `render --n 3 --radius 3 --epsilon 0`
SVG, pinned as `--no-deform`, an option that drew the same bytes, was
re-recorded when tile placement moved from numpy's BLAS matrix products to
left-to-right float sums: three coordinates printed as -0.000000 now print
as 0.000000, and no other number changed; the other SVG pins kept their
bytes.  All four SVG pins were re-recorded when the base polygon took its
closed form and the SVG stopped printing signed zeros: each new output is
its old bytes with every -0.000000 (33 to 56 of them) read as 0.000000.  Every `walls` pin predates canonical words spelled from the parent
wall.  The (2,3,7) and {5,6,7,8} `walls` reports were re-recorded when the
disjointness certificate began to list walls that cross in a residue of
order 4 or more: only their violation lists grew, keeping every earlier entry
in order.  The (4,4,4) R=6 report pins one such crossing.  All four
one-color-per-generator `walls` reports that exit 1 ((2,3,7), {5,6,7,8},
(4,4,4) and (3,3,inf)) were re-recorded when palette validity came to be read
off the Coxeter matrix: each violation became a generator pair with its
order, in place of two walls meeting at a chamber of the ball, and the wall
rows kept their bytes.  The `space
--n 3 --radius 7 --depth 5` report, the benchmark's tiling-render size, was
pinned before a rebased alphabet became the wall set's kept alphabet
relabeled, and before render's geometry kernels spelled out their 3-vectors.
The two `walls` reports of a right-angled 6-cycle whose generator names JSON
must escape were pinned while each wall row was a dict run through the
encoder, before the rows were spelled as JSON text.  All seven `walls` pins
were re-recorded when every wall's level and tree parent came to be printed
at every radius: each row once printed with the level "indeterminate" and a
null parent now carries its int level and its parent's word, or null and
null where classes cross, and every other byte is unchanged.  The smoke runs start
every perfbench workload at tiny sizes, traced, so its checks (Ball.edges,
the read-only WallSet.sep view, WallSet.separates) and its tracer's hooks
(WallSet.separating_walls, WallSet.canonical_word, the walls, hyperbolic and
other span functions) must still bind.
"""

import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from walls_report_oracle import walls_report

import coxtile.cli as cli
from coxtile.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRIANGLE_33INF = '{"generators":["a","b","c"],"matrix":[[1,3,3],[3,1,0],[3,0,1]]}'
TRIANGLE_237 = '{"generators":["a","b","c"],"matrix":[[1,2,3],[2,1,7],[3,7,1]]}'
TRIANGLE_444 = '{"generators":["a","b","c"],"matrix":[[1,4,4],[4,1,4],[4,4,1]]}'
# rank 4 with orders infinity, 7 and 8 (tests/test_word_engine.py's RANK4)
RANK4 = '{"generators":["a","b","c","d"],"matrix":[[1,0,0,0],[0,1,0,7],[0,0,1,8],[0,7,8,1]]}'
# rank 4 with orders 5, 6, 7 and 8, no infinity (tests/test_wall_identification.py's RANK4_5678)
RANK4_5678 = '{"generators":["a","b","c","d"],"matrix":[[1,5,6,7],[5,1,8,5],[6,8,1,6],[7,5,6,1]]}'
# the right-angled 6-cycle with generator names JSON must escape: a quote, two
# backslashes, a non-ASCII letter, a control character, a slash and a tab
ESCAPED_HEXAGON = (
    r'{"generators": ["a\"q", "b\\\\", "σ", "t\u0001", "u/", "v\t"], "matrix": [[1,2,0,0,0,2],'
    r'[2,1,2,0,0,0],[0,2,1,2,0,0],[0,0,2,1,2,0],[0,0,0,2,1,2],[2,0,0,0,2,1]]}'
)

REPORT_SHA256 = {
    "balance-r7-alternating": (
        ["balance", "--system", "hexagon", "--radius", "7", "--palette", "alternating",
         "--orientation", "alternating"],
        0,
        "f1dfdc6c45bf9f04292d2a54e30dd86f5de77817634892ff400cce0ca579c857",
    ),
    "balance-r7-all-plus": (
        ["balance", "--system", "hexagon", "--radius", "7", "--palette", "alternating",
         "--orientation", "all-plus"],
        0,
        "ce135adee011a5428b63572a9d463023f48d91ac3e9e82f3b0579909c6e5049c",
    ),
    "color-rank4-r3": (
        # exit 1: some (g, h) pairs find no witness in the window
        ["color", "--system", RANK4, "--g-range", "3", "--h-range", "3", "--window", "2"],
        1,
        "3b193a144baec21986a39d0480f8d88643bbddf49fe851a6e783c616493ff730",
    ),
    "color-pentagon-g3-h3-w2": (
        # exit 1: 20 of the 3,660 pairs find no witness; a radius-2 ball
        # cut this search to 420 pairs and exited 0
        ["color", "--system", "pentagon", "--g-range", "3", "--h-range", "3", "--window", "2"],
        1,
        "516e9df52cd09038dbcf50f8939c3cc94f4f006bd1d3a84bdfef9ef507e1ad58",
    ),
    "render-n3-r4": (
        ["render", "--n", "3", "--radius", "4"],
        0,
        "6485591d7838d4448c2ac8ec421dac14b2163cfdaedadfee9d12d3386aefb469",
    ),
    "render-n3-r3-no-deform": (
        ["render", "--n", "3", "--radius", "3", "--epsilon", "0"],
        0,
        "2f02c4cf8e0db34b39811e053aead05d515e6fae35c5b998ac2ed67905f92af8",
    ),
    "render-n3-r4-no-refine": (
        ["render", "--n", "3", "--radius", "4", "--no-refine"],
        0,
        "00453ed81040086b26d35fa08cb7a2f84fafd0ca86a85040dba5ac38991fb451",
    ),
    "render-n4-r3": (
        ["render", "--n", "4", "--radius", "3"],
        0,
        "0abb128cfad8275cd0e3745def408173f25eb4f25cb264d0910ffd6e7a8c8edd",
    ),
    "space-n3-r6-d4": (
        ["space", "--n", "3", "--radius", "6", "--depth", "4"],
        0,
        "d74d9f27def1f2d0887d21ac306023fa0aff85d6bc44e0f3f08b4a2d81172bc7",
    ),
    "space-n3-r7-d5": (
        # the benchmark's size: pinned before rebased alphabets relabeled the
        # wall set's kept alphabet
        ["space", "--n", "3", "--radius", "7", "--depth", "5"],
        0,
        "53fcf3677a11c6269ac897ec471aedaf9215f0b6ae63c66eb1500813558c11f5",
    ),
    "space-n4-r5-d2-no-refine": (
        ["space", "--n", "4", "--radius", "5", "--depth", "2", "--no-refine"],
        0,
        "934cad2196c7b91fc39ff751560c78e5064745b1dd2c16e73d22ae87e57417d4",
    ),
    "walls-hexagon-r8-alternating": (
        ["walls", "--system", "hexagon", "--radius", "8", "--palette", "alternating"],
        0,
        "276648d7bfce500d515cd45cb11f526aff246ec601c8d59f41e946217a80fb29",
    ),
    "seq-morse-thue-4096-cubes": (
        ["seq", "--kind", "morse_thue", "--n", "4096", "--power", "3"],
        0,
        "911163ee62a0b971ea3b978b6f51abe1a40eb2b2501d223010fbe556d3c14897",
    ),
    "seq-morse-thue-4096-squares": (
        # exit 1: the Thue-Morse word has squares, the first being 11 at 1
        ["seq", "--kind", "morse_thue", "--n", "4096", "--power", "2"],
        1,
        "32a3412cb93f86fa85c0bbff780d5fa835ff0afc02b5c5dc28fc457fee8265cf",
    ),
    "seq-ternary-20000-squares": (
        ["seq", "--kind", "ternary", "--n", "20000", "--power", "2"],
        0,
        "4785b71da113b0717723eb6dc9069891d7de2ed15df1a6b859a8cb39442439e0",
    ),
    "walls-237-r12-distinct": (
        # exit 1: a-c and b-c have orders 3 and 7.  Re-recorded when the 429
        # wall pairs of the ball scan gave way to these two generator pairs;
        # the wall rows kept their bytes
        ["walls", "--system", TRIANGLE_237, "--radius", "12", "--palette", "distinct"],
        1,
        "6a4e6d31b8c5f8db0ed98f9e239bbb09576b55d95b03a3845af2b03e872d3de6",
    ),
    "walls-rank4-5678-r6-distinct": (
        # exit 1: every pair has a finite order of 5 to 8.  Re-recorded when the
        # 1,513 wall pairs of the ball scan gave way to these six generator
        # pairs; the wall rows kept their bytes
        ["walls", "--system", RANK4_5678, "--radius", "6", "--palette", "distinct"],
        1,
        "c1df56e78129b0acafc20a34ec7e51479be30eea3b758ad7024ec516a3b0765d",
    ),
    "walls-444-r6-distinct": (
        # exit 1: walls 0 (a) and 5 (b.a.b) share generator a and cross in the
        # residue <a, b> of order 4 without sharing a chamber.  Re-recorded
        # when the ball scan's 84 wall pairs gave way to the three generator
        # pairs of order 4; the wall rows kept their bytes
        ["walls", "--system", TRIANGLE_444, "--radius", "6", "--palette", "distinct"],
        1,
        "44084c8c6b61cb5f66be2a2aa023e0ea9f387abf1ddcd5ae29ea95eda83a7c7c",
    ),
    "walls-escaped-r5-alternating": (
        ["walls", "--system", ESCAPED_HEXAGON, "--radius", "5", "--palette", "alternating"],
        0,
        "962ced3d8c1e7e578ad7455cf552f94bbfac2967e8024ecc8cbb91687b8e7202",
    ),
    "walls-escaped-r5-distinct": (
        ["walls", "--system", ESCAPED_HEXAGON, "--radius", "5", "--palette", "distinct"],
        0,
        "b89e1eff5c84ff9c63ab021c8915a397d94e35e478c4519fcd0e03c8ebd2d8ce",
    ),
    "walls-33inf-r10-distinct": (
        # exit 1: a-b and a-c have order 3.  Re-recorded when the ball scan's
        # 284 wall pairs gave way to these two generator pairs; the wall rows
        # kept their bytes
        ["walls", "--system", TRIANGLE_33INF, "--radius", "10", "--palette", "distinct"],
        1,
        "59159b98d2428713ee01992c258d277e0fbaf7616903d9ed4bde74ffe0706215",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes(name):
    argv, code, digest = REPORT_SHA256[name]
    buf = io.StringIO()
    assert main(argv, out=buf) == code
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


WALLS_RUNS = {name: argv for name, (argv, _, _) in REPORT_SHA256.items() if argv[0] == "walls"}
WALLS_RUNS["walls-hexagon-r0"] = ["walls", "--system", "hexagon", "--radius", "0"]  # no walls


@pytest.mark.parametrize("name", sorted(WALLS_RUNS))
def test_streamed_walls_report_equals_the_joined_one(name, monkeypatch):
    # the walls report spells its rows as JSON text and streams them; written
    # in chunks, of the default size and of 3 rows, they must give the bytes of
    # the joined report: one emit_report call over the same report built with
    # one dict per wall (tests/walls_report_oracle.py)
    argv = WALLS_RUNS[name]
    expected = walls_report(cli.build_parser().parse_args(argv))
    assert ('"walls":[]' in expected) == (name == "walls-hexagon-r0")
    for chunk_rows in (cli._CHUNK_ROWS, 3):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
        streamed = io.StringIO()
        main(argv, out=streamed)
        same = streamed.getvalue() == expected  # not in the assert: a diff of 7 MB takes minutes
        assert same, f"the report streamed {chunk_rows} rows at a time differs from the oracle's"


@pytest.mark.parametrize("workload", ["hexagon-r8", "refined-balance", "tiling-render", "general-coxeter"])
def test_benchmark_smoke_run_is_correct(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0", "--size", "tiny", "--trace", "1"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, run.stdout
