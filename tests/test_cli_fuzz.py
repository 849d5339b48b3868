"""Fuzz of the `ball`, `walls`, `color` and `balance` subcommands with
generated system JSON, of `seq` with generated lengths, powers and scans, and
of `space` with generated polygons, radii, depths and translate words.

Documents start from a valid system of rank at most 4 with orders at most 8,
and are then often broken: a bad matrix entry (wrong value or type), a
ragged row, odd generator names, a missing key, a non-object document, or
JSON cut short.  Whatever the input, the CLI must keep its exit-code
contract (0 ok, 1 a verification failed, 2 bad input), print nothing to
stdout on failure, and report a failure as one `error:` line, never a
traceback.  Exceptions are not caught here: one that escapes `main` fails
the test with its traceback.  `walls` also meets rank-1, radius-0 and finite
groups, whose chamber graphs have few or no edges leaving the ball (the -1
entries of Ball.nbr and WallSet.faces).  `color` draws g, h and window
ranges from -1 to 3 and enumerates the ball of the largest of them; on
systems that are not right-angled, products that leave that ball go through
the descent engine (Ball.mul in aperiodicity_report's witness search).  `balance` builds
the tile alphabet of either orientation, refined or not.  `seq` meets
negative lengths, a power the parser refuses, and scans below zero or past
the prefix; its verdicts are checked against the numpy scanner it replaced
(tests/power_free_oracle.py).  `space` meets polygons with too few sides,
negative radii and depths, depths past the labeled interior, and --g words
that are valid, unreduced, longer than the ball or spelled with unknown
generators.  `render` meets polygons with too few sides, negative radii,
and epsilons that are zero, small of either sign, large enough to break
simplicity or leave the floats, or not finite, with and without
refinement and deformation.
"""

import io
import json
from contextlib import redirect_stderr

from hypothesis import given, settings
from hypothesis import strategies as st

from cli_report import parse_report
from power_free_oracle import verify_power_free as oracle_scan

from coxtile.cli import main
from coxtile.sequences import square_free_prefix, thue_morse_prefix

ORDERS = [0, 2, 3, 4, 5, 6, 7, 8]
BAD_ENTRIES = [-1, 1, 9, "3", "x", 2.5, None, [], True, float("inf"), float("nan")]


@st.composite
def system_texts(draw):
    rank = draw(st.integers(0, 4))
    matrix = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            matrix[i][j] = matrix[j][i] = draw(st.sampled_from(ORDERS))
    doc = {"generators": [f"s{i}" for i in range(rank)], "matrix": matrix}
    flaw = draw(st.sampled_from(["none", "none", "entry", "row", "names", "key", "shape", "cut"]))
    if flaw == "entry" and rank:
        i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        matrix[i][j] = draw(st.sampled_from(BAD_ENTRIES))
    elif flaw == "row" and rank:
        matrix[draw(st.integers(0, rank - 1))].pop()
    elif flaw == "names":
        doc["generators"] = draw(
            st.lists(st.one_of(st.sampled_from(["s0", "s1", "t"]), st.integers(0, 2)), max_size=5)
        )
    elif flaw == "key":
        del doc[draw(st.sampled_from(["generators", "matrix"]))]
    elif flaw == "shape":
        doc = draw(st.sampled_from([[], None, 3, "system", {"generators": 3, "matrix": 3}]))
    text = json.dumps(doc)
    if flaw == "cut":
        text = text[: draw(st.integers(1, len(text) - 1))]
    # a document that is not an object would be read as a file path
    return text if text.startswith("{") else "{" + text


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(system_texts(), st.integers(-1, 4))
def test_ball_keeps_exit_code_contract(text, radius):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = main(["ball", "--system", text, "--radius", str(radius)], out=out)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        results = parse_report(out.getvalue())["results"]
        assert results["size"] == sum(results["sphere_sizes"])
        assert len(results["sphere_sizes"]) == radius + 1
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(system_texts(), st.integers(-1, 3), st.sampled_from(["distinct", "alternating"]))
def test_walls_keeps_exit_code_contract(text, radius, palette):
    out, err = io.StringIO(), io.StringIO()
    argv = ["walls", "--system", text, "--radius", str(radius), "--palette", palette]
    with redirect_stderr(err):
        code = main(argv, out=out)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert err.getvalue() == ""
        results = parse_report(out.getvalue())["results"]
        assert results["wall_count"] == len(results["walls"])
        assert results["classes_disjoint"] == (code == 0) == (not results["violations"])


def _failure_is_one_error_line(out, err):
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(system_texts(), st.integers(-1, 3), st.integers(-1, 3), st.integers(-1, 3))
def test_color_keeps_exit_code_contract(text, g_range, h_range, window):
    out, err = io.StringIO(), io.StringIO()
    argv = ["color", "--system", text, "--g-range", str(g_range), "--h-range", str(h_range),
            "--window", str(window)]
    with redirect_stderr(err):
        code = main(argv, out=out)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        _failure_is_one_error_line(out, err)
    else:
        assert err.getvalue() == ""
        results = parse_report(out.getvalue())["results"]
        witnessed = all(p["witness_x"] is not None for p in results["pairs"])
        assert results["all_witnessed"] == witnessed == (code == 0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    system_texts(),
    st.integers(-1, 3),
    st.sampled_from(["distinct", "alternating"]),
    st.sampled_from(["alternating", "all-plus"]),
    st.booleans(),
)
def test_balance_keeps_exit_code_contract(text, radius, palette, orientation, refine):
    out, err = io.StringIO(), io.StringIO()
    argv = ["balance", "--system", text, "--radius", str(radius), "--palette", palette,
            "--orientation", orientation] + (["--refine"] if refine else [])
    with redirect_stderr(err):
        code = main(argv, out=out)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        _failure_is_one_error_line(out, err)
    else:
        assert err.getvalue() == ""
        results = parse_report(out.getvalue())["results"]
        assert results["alphabet_size"] == len(results["tiles"])


@st.composite
def seq_argvs(draw):
    kind = draw(st.sampled_from(["morse_thue", "ternary"]))
    n = draw(st.integers(-2, 300))
    power = draw(st.sampled_from([None, 2, 3, 4]))
    scan = draw(st.one_of(st.none(), st.integers(-2, n + 2)))
    argv = ["seq", "--kind", kind, "--n", str(n)]
    if power is not None:
        argv += ["--power", str(power)]
    if scan is not None:
        argv += ["--scan", str(scan)]
    return argv, kind, n, power, scan


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seq_argvs())
def test_seq_keeps_exit_code_contract(drawn):
    argv, kind, n, power, scan = drawn
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = main(argv, out=out)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        # the parser refuses --power 4 after its usage line
        assert len([line for line in lines if "error: " in line]) == 1
        assert power == 4 or (len(lines) == 1 and lines[0].startswith("error: "))
        return
    assert err.getvalue() == ""
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    prefix = thue_morse_prefix(n) if kind == "morse_thue" else square_free_prefix(n)
    assert records[0] == {"kind": kind, "n": n, "prefix": prefix}
    if power is None:
        assert len(records) == 1 and code == 0
        return
    verdict = records[1]
    want = oracle_scan(prefix, power, n if scan is None else scan)
    assert verdict["scan"] == (n if scan is None else scan)
    if want is None:
        assert verdict["verdict"] == "free" and code == 0
    else:
        assert verdict["verdict"] == "witness" and code == 1
        assert (verdict["position"], tuple(verdict["word"])) == (want.position, want.word)


# tokens any hexagon or octagon word may use, then tokens a hexagon word rejects
# ("e" and "" only inside a longer word)
VALID_TOKENS = ["s0", "s1", "s2", "s3", "0", "3"]
BAD_TOKENS = ["s9", "7", "x", "e", "", "-1"]


@st.composite
def space_argvs(draw):
    # hexagon, octagon and square, or one time in four a polygon with too few sides
    n = draw(st.sampled_from([3, 4, 2] if draw(st.integers(0, 3)) else [1, 0, -1]))
    radius = draw(st.sampled_from([4, 5, 3, 2, 1, 0, -1]))
    depth = radius - draw(st.sampled_from([3, 2, 1, 4, 5]))  # the default translates need depth <= radius - 3
    argv = ["space", "--n", str(n), "--radius", str(radius), "--depth", str(depth)]
    g = None
    if draw(st.booleans()):
        tokens = draw(st.lists(st.sampled_from(VALID_TOKENS), max_size=4))
        if draw(st.integers(0, 3)) == 0:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(BAD_TOKENS)))
        g = draw(st.sampled_from([".", ","])).join(tokens)
        argv.append(f"--g={g}")  # so that a word starting with "-" is not read as a flag
    if draw(st.booleans()):
        argv.append("--no-refine")
    return argv, depth, g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(space_argvs())
def test_space_keeps_exit_code_contract(drawn):
    argv, depth, g = drawn
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = main(argv, out=out)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        _failure_is_one_error_line(out, err)
        return
    assert code == 0 and err.getvalue() == ""
    results = parse_report(out.getvalue())["results"]
    assert results["depth"] == depth >= 0
    assert results["base_patch"]["depth"] == depth
    comparisons = results["translate_comparisons"]
    assert all(c["verdict"] in ("fixed", "differs") for c in comparisons)
    if g:
        assert len(comparisons) == 1


@st.composite
def render_argvs(draw):
    n = draw(st.integers(1, 6))
    radius = draw(st.integers(-1, 3))
    epsilon = draw(
        st.one_of(
            st.just(0.0),
            st.floats(-0.2, 0.2),
            st.builds(lambda m, sign: sign * m, st.floats(10.0, 1e3), st.sampled_from([1, -1])),
            st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        )
    )
    argv = ["render", "--n", str(n), "--radius", str(radius), f"--epsilon={epsilon}"]
    if draw(st.booleans()):
        argv.append("--no-refine")
    if draw(st.booleans()):
        argv.append("--epsilon=0")  # the last --epsilon wins: undeformed tiles
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(render_argvs())
def test_render_keeps_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = main(argv, out=out)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        _failure_is_one_error_line(out, err)
    else:
        assert err.getvalue() == ""
        assert out.getvalue().startswith("<?xml")
