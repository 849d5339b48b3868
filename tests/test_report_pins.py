"""Report bytes pinned by sha256 across the flat chamber-graph core, and the
benchmark's smoke runs.

The pins were recorded before Ball.edges became a view over Ball.nbr and
WallSet.edge_wall gave way to WallSet.faces: the unrefined hexagon R=7
balance reports for both orientations, and the (3,3,inf) R=10 `walls` report
with one color per generator.  The (2,3,7) R=12 `walls` report was pinned
while braid closure still spelled its canonical words, so it checks the
descent engine byte for byte on a system with cyclotomic roots.  The smoke
runs start perfbench at tiny sizes, traced, so its checks (Ball.edges,
WallSet.sep, WallSet.separates) and its tracer's hooks
(WallSet.separating_walls, WallSet.canonical_word and the walls span
functions) must still bind.
"""

import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from coxtile.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRIANGLE_33INF = '{"generators":["a","b","c"],"matrix":[[1,3,3],[3,1,0],[3,0,1]]}'
TRIANGLE_237 = '{"generators":["a","b","c"],"matrix":[[1,2,3],[2,1,7],[3,7,1]]}'

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
    "walls-237-r12-distinct": (
        # recorded with the braid-closure word engine, before the descent engine
        ["walls", "--system", TRIANGLE_237, "--radius", "12", "--palette", "distinct"],
        1,
        "90e8d42c5156e4270016047ec11caed012f300417c2b83ea1e3b9459af842855",
    ),
    "walls-33inf-r10-distinct": (
        # exit 1: the report lists corners where walls of one color meet
        ["walls", "--system", TRIANGLE_33INF, "--radius", "10", "--palette", "distinct"],
        1,
        "4d761c0e3c4a52f5ba5dae6ff3098d4de0386db69fc6efcd34436555a4ff95d8",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes(name):
    argv, code, digest = REPORT_SHA256[name]
    buf = io.StringIO()
    assert main(argv, out=buf) == code
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("workload", ["hexagon-r8", "general-coxeter"])
def test_benchmark_smoke_run_is_correct(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0", "--size", "tiny", "--trace", "1"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, run.stdout
