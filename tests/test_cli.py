import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import cli
from qident.cli import (
    EVAL_REGISTRY,
    REGISTRY,
    GRID_VERSION,
    MAX_DEGREE,
    MAX_JOBS,
    Family,
    ParamSpec,
    _points_for,
    main,
)
from qident.errors import InvalidParams, QIdentError
from qident.qpoly import ONE, ZERO, QPoly, render


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def rows_of(out):
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert lines, "no output"
    summary = lines[-1]
    assert summary.get("summary") is True
    return lines[:-1], summary


# --- documented example invocations --------------------------------------------------

def test_eval_qbin_examples(capsys):
    code, out, _ = run(["eval", "qbin", "--m", "2", "--n", "2"], capsys)
    assert code == 0
    assert out == "1 + q + 2*q^2 + q^3 + q^4\n"
    code, out, _ = run(["eval", "qbin", "--m", "-1", "--n", "0"], capsys)
    assert code == 0
    assert out == "0\n"


def test_eval_tmultinomial_example(capsys):
    code, out, _ = run(
        ["eval", "tmultinomial", "--N", "2", "--L", "1", "--a", "0", "--n", "0"], capsys
    )
    assert code == 0
    assert out == "q^(1/2)\n"


def test_verify_gensum_example_sweep(capsys):
    code, out, _ = run(
        ["verify", "gensum", "--N", "1..3", "--M", "0..4",
         "--L1", "0..3", "--L2", "0..3", "--ell", "-2..2"],
        capsys,
    )
    assert code == 0
    rows, summary = rows_of(out)
    assert summary["total"] == 3 * 2 * 5 * 5 * 4 * 4
    assert summary["mismatch"] == 0 and summary["error"] == 0
    assert summary["equal"] > 500


def test_verify_qs2_include_exceptional(capsys):
    code, out, _ = run(
        ["verify", "qs2", "--include-exceptional",
         "--L1", "-4..0", "--L2", "-4..4", "--M", "0..2", "--ell", "-4..4"],
        capsys,
    )
    assert code == 0
    rows, summary = rows_of(out)
    skipped = [r for r in rows if r["verdict"] == "skipped_precondition"]
    assert skipped, "the narrowed box still contains exceptional points"
    for r in skipped:
        assert r["lhs_repr"] == "0"
        assert r["rhs_repr"] != "0"


def test_qs2_exceptional_hidden_without_flag(capsys):
    code, out, err = run(
        ["verify", "qs2", "--L1", "-1", "--L2", "1", "--M", "1", "--ell", "-1"], capsys
    )
    # the one point is skipped, so nothing was checked: a vacuous run fails
    assert code == 1
    assert err == "qs2: no point was checked, so nothing was verified\n"
    rows, summary = rows_of(out)
    assert summary["exit_code"] == 1
    assert rows[0]["verdict"] == "skipped_precondition"
    assert "lhs_repr" not in rows[0] and "rhs_repr" not in rows[0]


def test_empty_range_is_config_error(capsys):
    code, _, err = run(["verify", "gensum", "--M", "3..1"], capsys)
    assert code == 2
    assert "empty range" in err


def test_unknown_family_and_param(capsys):
    code, _, err = run(["verify", "nope"], capsys)
    assert code == 2 and "unknown identity" in err
    code, _, err = run(["verify", "qs2", "--bogus", "1"], capsys)
    assert code == 2 and "unknown parameter" in err


def test_oversized_sweep_rejected(capsys):
    code, out, err = run(["verify", "sears", "--a", "0"], capsys)
    assert code == 2 and out == ""
    assert err == "error: sweep would exceed 200000 points; narrow the ranges\n"


@pytest.mark.parametrize("ident,ranges", [
    *((ident, {}) for ident in REGISTRY),
    ("gensum", {"N": [5]}),
    ("burge.bt", {"p": [1], "M1": [0, 1]}),
    ("series.strings", {"N": [2], "m": [0, 1], "ell": [0, 1, 2]}),
    ("qs2", {"L1": [0, 1], "L2": [2], "M": [0, 1, 2], "ell": [-1, 1]}),
])
def test_point_count_matches_the_walk(ident, ranges):
    # the count is taken before any point is built; it must be the walk's length
    fam = REGISTRY[ident]
    count, points = _points_for(fam, ranges)
    points = list(points)
    assert count == len(points) > 0
    assert points == walk_oracle(fam, ranges)


def walk_oracle(fam, ranges):
    """The documented sweep order, one axis per recursion level: the named axes
    first, in parameter order, then each unnamed axis by its grid rule, a joint
    axis named in part giving each unnamed column its own values."""
    if not ranges and fam.sample is not None:
        return list(fam.sample())
    axes = [((n,), ranges[n]) for n in fam.names if n in ranges]
    for key, values in fam.axes:
        names = (key,) if isinstance(key, str) else key
        free = [n for n in names if n not in ranges]
        if len(free) == len(names):
            axes.append((names, values))
        else:
            axes.extend(((n,), list(dict.fromkeys(t[names.index(n)] for t in values))) for n in free)
    out = []

    def visit(depth, point):
        if depth == len(axes):
            out.append(tuple(point[n] for n in fam.names))
            return
        names, values = axes[depth]
        for v in values(point) if callable(values) else values:
            visit(depth + 1, {**point, **dict(zip(names, v if len(names) > 1 else (v,)))})

    visit(0, {})
    return out


def test_eval_unknown_and_missing(capsys):
    code, _, err = run(["eval", "nothing"], capsys)
    assert code == 2
    code, _, err = run(["eval", "qbin", "--m", "2"], capsys)
    assert code == 2 and "--n" in err


@pytest.mark.parametrize("args,err", [
    ("euler_n --M 1 --L 1 --N 0", "N must be >= 1"),
    ("nn --M 1 --L 1 --N 3", "nn is the N = 1 display"),
    ("rr --M 1 --L 1 --sigma 1", "sigma must be 0 or 1, and 0 for odd N"),
    ("slater --M 1 --L 1 --N 3", "slater is the N = 2 display"),
    ("rr --M 2 --L 1/2", "L - sigma/2 must be an integer, got 1/2"),
])
def test_eval_closed_at_a_point_with_no_node_is_config_error(capsys, args, err):
    # each point is checked once, before any display runs
    assert run(["eval", "closed", "--name", *args.split()], capsys) == (
        2, "", f"error: InvalidParams: {err}\n")


def test_negative_trunc_is_config_error(capsys):
    for argv in (["verify", "series.durfee", "--trunc", "-1"],
                 ["eval", "qbin", "--m", "1", "--n", "1", "--trunc", "-1"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == "error: --trunc must be >= 0, got -1\n"


@pytest.mark.parametrize("argv, err", [
    (["verify", "series.limlm", "--N", "1", "--ell", "0", "--sigma", "0", "--trunc", "100000000000"],
     f"--trunc must be <= {MAX_DEGREE}, got 100000000000"),
    (["eval", "product", "--family", "rr", "--trunc", str(MAX_DEGREE + 1)],
     f"--trunc must be <= {MAX_DEGREE}, got {MAX_DEGREE + 1}"),
    (["verify", "qpoly.partitions", "--limit", f"50,{MAX_DEGREE + 1}"],
     f"--limit must be <= {MAX_DEGREE}, got {MAX_DEGREE + 1}"),
    (["eval", "euler", "--limit", "5000"], f"--limit must be <= {MAX_DEGREE}, got 5000"),
    (["verify", "qpoly.partitions", "--limit", "0..100000000000"],
     "--limit: range '0..100000000000' exceeds 200000 values"),
    (["verify", "qs2", "--M", "0..100000000000"], "--M: range '0..100000000000' exceeds 200000 values"),
], ids=["trunc", "eval_trunc", "limit", "eval_limit", "limit_range", "any_range"])
def test_degree_above_the_cap_is_config_error(capsys, monkeypatch, argv, err):
    # exit 2 at parse time: nothing is evaluated, and no point or range is built
    def fail(*args):
        raise AssertionError("evaluated past the parse")

    monkeypatch.setattr(cli, "_sweep", fail)
    monkeypatch.setattr(cli, "Truncation", fail)
    assert run(argv, capsys) == (2, "", f"error: {err}\n")


def test_degree_at_the_cap_is_accepted(capsys, monkeypatch):
    swept = []
    monkeypatch.setattr(cli, "_sweep", lambda args, runs, opts, suite: swept.append((runs, opts)) or 0)
    assert run(["verify", "qpoly.partitions", "--limit", f"0,{MAX_DEGREE}"], capsys) == (0, "", "")
    assert run(["verify", "series.durfee", "--trunc", str(MAX_DEGREE)], capsys) == (0, "", "")
    assert swept[0][0][0][1] == {"limit": [0, MAX_DEGREE]} and swept[1][1]["trunc"] == MAX_DEGREE


@pytest.mark.parametrize("argv,err", [
    (["verify", "qs2", "--trunc", "4"],
     "error: --trunc does not apply to qs2, which has no degree D\n"),
    (["verify", "qpoly.partitions", "--trunc", "5"],
     "error: --trunc does not apply to qpoly.partitions, which has no degree D\n"),
    (["eval", "euler", "--limit", "10", "--trunc", "3"],
     "error: --trunc does not apply to euler, which has no degree D\n"),
])
def test_trunc_where_nothing_is_truncated_is_config_error(capsys, argv, err):
    assert run(argv, capsys) == (2, "", err)


def test_nonpositive_jobs_is_config_error(capsys):
    for argv in (["verify", "qs2", "--jobs", "0"], ["suite", "--jobs", "-3"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: --jobs must be >= 1") and err.count("\n") == 1


def test_jobs_above_the_cap_is_config_error(capsys, monkeypatch):
    # a pool forks all its workers at the first submit; the patch makes sure
    # no pool can start here even if the check were missing
    def no_pool(jobs):
        raise AssertionError(f"a pool of {jobs} workers was started")

    monkeypatch.setattr("qident.cli._new_pool", no_pool)
    for argv in (["verify", "qs2", "--jobs", str(MAX_JOBS + 1)], ["suite", "--jobs", "100000"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error: --jobs must be <= {MAX_JOBS}, got {argv[-1]}\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_checker_exception_is_one_error_row(capsys, monkeypatch, jobs):
    fam = REGISTRY["qs2"]

    def sides(p, d):
        if p.M == 1:  # p is the row's ClassicParams record
            raise ZeroDivisionError("injected")
        return fam.sides(p, d)

    monkeypatch.setitem(REGISTRY, "qs2", dataclasses.replace(fam, sides=sides))
    code, out, err = run(["verify", "qs2", "--L1", "1", "--L2", "1", "--M", "0..2",
                          "--ell", "0", "--jobs", jobs], capsys)
    assert code == 1
    rows, summary = rows_of(out)
    assert [r["verdict"] for r in rows] == ["equal", "error", "equal"]
    assert summary["error"] == 1 and summary["equal"] == 2 and summary["exit_code"] == 1
    assert "ZeroDivisionError: injected" in err


def test_cbp_mismatch_reports_failing_L(capsys, monkeypatch):
    monkeypatch.setattr("qident.series.conjugate_pair_failure", lambda bq: (2, ONE, ZERO))
    code, out, _ = run(["verify", "series.cbp", "--N", "1", "--ell", "0",
                        "--sigma", "0", "--M", "3"], capsys)
    assert code == 1
    rows, _ = rows_of(out)
    assert rows[0]["verdict"] == "mismatch"
    assert rows[0]["witness"] == {"L": 2}
    assert rows[0]["diff_repr"] == "1"


# --- tree ----------------------------------------------------------------------------

def test_tree_depth2_all_nonroot_verified(capsys):
    code, out, _ = run(["tree", "--depth", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["grid_version"] == GRID_VERSION
    nonroot = [nd for nd in doc["nodes"] if nd["parent_index"] is not None]
    assert len(nonroot) == 6
    assert all(nd["verified"] for nd in nonroot)


def test_tree_depth0_root_verified(capsys):
    code, out, _ = run(["tree", "--depth", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 1
    assert doc["nodes"][0]["verified"] is True


def test_tree_depth_cap(capsys):
    for depth in ("7", "-1"):
        assert run(["tree", "--depth", depth], capsys) == (2, "", "error: depth must lie in 0..6\n")


def test_verify_tree_above_the_depth_cap_is_skipped_at_once(capsys):
    # the cap lives in build_tree, so the verify family's precondition keeps
    # a deep point from doubling its work per level
    code, out, err = run(["verify", "burge.tree", "--depth", "7,14"], capsys)
    assert code == 1
    rows, summary = rows_of(out)
    assert [r["verdict"] for r in rows] == ["skipped_precondition"] * 2
    assert summary["skipped_precondition"] == 2 and summary["equal"] == 0
    assert err == "burge.tree: no point was checked, so nothing was verified\n"


def test_tree_grid_cap(capsys):
    for grid in ("9", "30"):
        assert run(["tree", "--depth", "1", "--grid", grid], capsys) == (
            2, "", "error: verify_grid must lie in 0..8\n")


def test_tree_negative_grid_is_config_error(capsys):
    code, out, err = run(["tree", "--depth", "1", "--grid", "-1"], capsys)
    assert code == 2 and out == ""
    assert err == "error: --grid must be >= 0, got -1\n"


def test_tree_odd_level_sigma_config_error(capsys):
    code, _, err = run(["tree", "--depth", "1", "--N", "3", "--sigma", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("n", ["0", "-3"])
def test_tree_level_below_one_is_config_error(capsys, n):
    assert run(["tree", "--N", n], capsys) == (2, "", "error: N must be >= 1\n")


@pytest.mark.parametrize("argv", [
    ["verify", "qs2", "--L1", "1", "--L2", "0", "--M", "0", "--ell", "0", "--L1", "2"],
    ["verify", "qs2", "--L1=1", "--L1", "1"],
    ["eval", "qbin", "--m", "1", "--m", "2", "--n", "1"],
])
def test_repeated_parameter_is_config_error(capsys, argv):
    flag = argv[2].partition("=")[0]
    assert run(argv, capsys) == (2, "", f"error: {flag} given twice\n")


# --- report schema and determinism ---------------------------------------------------

def test_row_schema_and_summary_counts(capsys):
    code, out, _ = run(["verify", "series.limlm"], capsys)
    assert code == 0
    rows, summary = rows_of(out)
    for r in rows:
        assert r["identity_id"] == "series.limlm"
        assert set(r["params"]) == {"N", "ell", "sigma"}
        assert r["verdict"] in ("equal", "mismatch", "skipped_precondition", "error")
        assert r["elapsed_ms"] == 0
        if r["verdict"] == "equal":
            assert r["truncation"] == 25
    tally = {"equal": 0, "mismatch": 0, "skipped_precondition": 0, "error": 0}
    for r in rows:
        tally[r["verdict"]] += 1
    for k, v in tally.items():
        assert summary[k] == v
    assert summary["total"] == len(rows)


# --- row rendering -----------------------------------------------------------------

def row_oracle(fam, values, verdict, fields, elapsed):
    """A row as the row record renders it: json.dumps of identity, encoded params,
    the verdict and its fields that are not None and elapsed_ms, and the text
    line of the same record."""
    def encode(v):
        if v is None:
            return "inf"
        if isinstance(v, Fraction):
            return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return v

    row = {"identity_id": fam.identity_id,
           "params": {n: encode(v) for n, v in zip(fam.names, values)},
           "verdict": verdict, **{k: v for k, v in fields.items() if v is not None},
           "elapsed_ms": elapsed}
    parts = [verdict, row["identity_id"], *(f"{k}={v}" for k, v in row["params"].items())]
    if "truncation" in row:
        parts.append(f"D={row['truncation']}")
    if "diff_repr" in row:
        parts.append(f"diff[{row['diff_repr']}]")
    elif "lhs_repr" in row:
        parts.append(f"lhs[{row['lhs_repr']}] rhs[{row['rhs_repr']}]")
    return json.dumps(row) + "\n", " ".join(parts) + "\n"


_MIXED = Family("mixed", (ParamSpec("n", "int"), ParamSpec("r", "rat"), ParamSpec("m", "intinf"),
                          ParamSpec("w", "word", ("nn", "rr"))), (), lambda p, d: (ONE, ONE))
_Q, _ROOT_Q = QPoly({1: 1}), QPoly({Fraction(1, 2): 1})


def _raise(p, d):
    raise ZeroDivisionError("injected")


def _chunk_rows(monkeypatch, fam, values, d=None, include_exceptional=False, timing=False,
                fmt="json", color=False, **change):
    """The rows, counts and notes that the chunk loop gives one point of fam, its
    sides (equal by default) and precondition replaced as `change` says and its
    point left a dict."""
    change = {"point": None, "precondition": None, "sides": lambda p, d: (ONE, ONE), **change}
    fam = dataclasses.replace(fam, **change)
    monkeypatch.setitem(REGISTRY, fam.identity_id, fam)
    opts = {"include_exceptional": include_exceptional, "timing": timing, "format": fmt, "color": color}
    return cli._eval_chunk(fam.identity_id, [values], d, opts)


# (how the chunk loop runs the point, the verdict, its fields)
_ROW_FIELDS = [
    pytest.param({}, "equal", {}, id="equal"),
    pytest.param({"d": 25, "sides": lambda p, d: (ONE, ONE + QPoly({26: 3}))},
                 "equal", {"truncation": 25}, id="equal_truncated"),
    pytest.param({"precondition": lambda p: False, "exceptional_sides": True},
                 "skipped_precondition", {}, id="skipped"),
    pytest.param({"precondition": lambda p: False, "exceptional_sides": True,
                  "include_exceptional": True, "sides": lambda p, d: (ONE + _Q, ZERO)},
                 "skipped_precondition", {"lhs_repr": "1 + q", "rhs_repr": "0"}, id="skipped_with_sides"),
    pytest.param({"sides": lambda p, d: (ONE, ONE + ONE, {"node": 2, "M": 1, "L": "1/2"})},
                 "mismatch", {"lhs_repr": "1", "rhs_repr": "2", "diff_repr": "-1", "truncation": None,
                              "witness": {"node": 2, "M": 1, "L": "1/2"}}, id="mismatch_witness"),
    pytest.param({"d": 4, "sides": lambda p, d: (_Q + QPoly({5: 1}), _ROOT_Q)},
                 "mismatch", {"lhs_repr": "q", "rhs_repr": "q^(1/2)", "diff_repr": "-q^(1/2) + q",
                              "truncation": 4, "witness": None}, id="mismatch_truncated"),
    pytest.param({"sides": _raise}, "error", {}, id="error"),
]


@pytest.mark.parametrize("run_as, verdict, fields", _ROW_FIELDS)
@pytest.mark.parametrize("fam, values", [
    (REGISTRY["qs2"], (-3, 0, 12, -1)),
    (_MIXED, (-4, Fraction(3), None, "nn")),
    (_MIXED, (0, Fraction(-5, 2), 7, "rr")),
], ids=["ints", "rat_int_inf", "rat_half"])
def test_row_line_matches_the_row_record(monkeypatch, fam, values, run_as, verdict, fields):
    # the row the chunk loop writes for each verdict, in both formats
    want_json, want_text = row_oracle(fam, values, verdict, fields, 0)
    line, counts, notes, first = _chunk_rows(monkeypatch, fam, values, **run_as)
    assert line == want_json
    # the first mismatch keeps its row index and both sides, the compared ones
    assert (first is None) == (verdict != "mismatch")
    if first is not None:
        assert (first[0], render(first[1]), render(first[2])) == (0, fields["lhs_repr"], fields["rhs_repr"])
    assert json.loads(line)["params"]["n" if fam is _MIXED else "L1"] == values[0]
    assert counts == {**dict.fromkeys(counts, 0), verdict: 1}
    assert len(notes) == (verdict == "error")
    assert _chunk_rows(monkeypatch, fam, values, fmt="text", **run_as)[0] == want_text
    color = {"equal": "32", "skipped_precondition": "33"}.get(verdict, "31")
    assert (_chunk_rows(monkeypatch, fam, values, fmt="text", color=True, **run_as)[0]
            == f"\x1b[{color}m{verdict}\x1b[0m{want_text[len(verdict):]}")


def test_timed_row_matches_the_row_record(monkeypatch):
    # a row with elapsed_ms above 0 is rendered in full, not from a precomputed end
    def slow(p, d):
        time.sleep(0.003)
        return ONE, ONE

    values = (-4, Fraction(3), None, "nn")
    line = _chunk_rows(monkeypatch, _MIXED, values, timing=True, sides=slow)[0]
    elapsed = json.loads(line)["elapsed_ms"]
    assert type(elapsed) is int and elapsed >= 3
    assert line == row_oracle(_MIXED, values, "equal", {}, elapsed)[0]


@pytest.mark.parametrize("fields", [
    {}, {"truncation": 25}, {"lhs_repr": "1", "rhs_repr": "q", "diff_repr": "1 - q", "truncation": None},
], ids=["no_fields", "truncation", "sides"])
@pytest.mark.parametrize("fam, values", [
    (REGISTRY["qs2"], (-3, 0, 12, -1)),
    (REGISTRY["qs2"], (0, 0, 0, 0)),
    (REGISTRY["gensum"], (2, 0, -2, 3, Fraction(5, 2), 1)),  # L as gensum parses it
    (REGISTRY["gensum"], (2, 1, 1, 0, Fraction(1, 2), Fraction(3))),
    (REGISTRY["burge.forms"], ("ising", 2, 1, 4, Fraction(3, 2))),  # a word value
    (_MIXED, (-4, Fraction(-5, 2), None, "rr")),  # None is written inf
    (_MIXED, (1, 2, 3, True)),  # a bool is no plain int
], ids=["negative_ints", "zeros", "gensum_half", "gensum_whole_fraction", "forms_word", "inf", "bool"])
def test_json_row_with_plain_ints_skips_the_value_encoder(monkeypatch, fam, values, fields):
    verdict = "mismatch" if "diff_repr" in fields else "equal"
    want = row_oracle(fam, values, verdict, fields, 0)[0]
    encoded = []
    json_value = cli._json_value
    monkeypatch.setattr(cli, "_json_value", lambda v: encoded.append(v) or json_value(v))
    rhs = _Q if verdict == "mismatch" else ONE
    assert _chunk_rows(monkeypatch, fam, values, fields.get("truncation"),
                       sides=lambda p, d: (ONE, rhs))[0] == want
    fast = all(type(v) is int for v in values)
    assert len(encoded) == (0 if fast else len(values)) + sum(v is not None for v in fields.values())


_SWEEPS = {  # the argv of a sweep, and the monkeypatch it runs under
    "qs2": (["verify", "qs2", "--L1", "-2..2", "--L2", "-1..2", "--M", "-1..2", "--ell", "-2..2"], None),
    "qs2_exceptional": (["verify", "qs2", "--include-exceptional", "--L1", "-2..2", "--L2", "-2..1",
                         "--M", "0..2", "--ell", "-2..2"], None),
    "qs2_timing": (["verify", "qs2", "--L1", "0..3", "--L2", "1", "--M", "-1..3", "--ell", "-1..1",
                    "--timing"], None),
    "qs2_error": (["verify", "qs2", "--L1", "1", "--L2", "1", "--M", "0..3", "--ell", "0"], "error"),
    "gensum_fractions": (["verify", "gensum", "--N", "2", "--sigma", "1", "--M", "0..1", "--ell", "0"], None),
    "forms_words": (["verify", "burge.forms", "--name", "ising,rr_n", "--M", "0..2"], None),
    "cbp_inf": (["verify", "series.cbp", "--N", "1", "--ell", "0"], None),
    "cbp_witness": (["verify", "series.cbp", "--N", "1", "--ell", "0", "--sigma", "0"], "witness"),
    "limlm_truncated": (["verify", "series.limlm", "--N", "1", "--trunc", "12"], None),
    "partitions_limit": (["verify", "qpoly.partitions", "--limit", "-1,0,7,12"], None),
}


@pytest.mark.parametrize("case", list(_SWEEPS))
def test_every_row_of_a_sweep_matches_the_row_record(capsys, monkeypatch, case):
    # each row of a real sweep against the oracle, with the point values the
    # grid walk gives and the fields the JSON row reports, in both formats
    argv, patch = _SWEEPS[case]
    fam = REGISTRY[argv[1]]
    if patch == "error":
        def sides(p, d):
            if p.M == 2:
                raise ZeroDivisionError("injected")
            return fam.sides(p, d)

        monkeypatch.setitem(REGISTRY, "qs2", dataclasses.replace(fam, sides=sides))
    if patch == "witness":  # as in test_cbp_mismatch_reports_failing_L
        monkeypatch.setattr("qident.series.conjugate_pair_failure", lambda bq: (2, ONE, ZERO))
    extras = [a for a in argv[2:] if a not in ("--include-exceptional", "--timing")]
    extras = extras[:extras.index("--trunc")] if "--trunc" in extras else extras
    _, points = _points_for(fam, cli._parse_overrides(fam.params, extras, multi=True))
    points = list(points)
    code, out, _ = run(argv, capsys)
    rows = out.splitlines(keepends=True)[:-1]
    text = run(argv + ["--format", "text"], capsys)[1].splitlines(keepends=True)[:-1]
    assert len(rows) == len(text) == len(points) > 0
    verdicts = set()
    for values, line, text_line in zip(points, rows, text):
        row = json.loads(line)
        fields = {k: v for k, v in row.items()
                  if k not in ("identity_id", "params", "verdict", "elapsed_ms")}
        elapsed = row["elapsed_ms"]
        assert type(elapsed) is int and elapsed >= 0 and (elapsed == 0 or "--timing" in argv)
        want_json, want_text = row_oracle(fam, values, row["verdict"], fields, elapsed)
        assert (line, text_line) == (want_json, want_text)
        verdicts.add(row["verdict"])
    assert verdicts == {"error": {"equal", "error"}, "witness": {"mismatch"}}.get(patch, verdicts)
    assert code == (1 if verdicts & {"mismatch", "error"} else 0)


@pytest.mark.parametrize("argv, sha, lines", [
    (["verify", "qs2", "--include-exceptional", "--format", "text", "--L1", "-2..3",
      "--L2", "-2..3", "--M", "-1..3", "--ell", "-3..3"],
     "179ed42331d58de21a4f8e5cc1f2959a17fcc08067dd608a974c183bad4d91be", 1261),
    (["verify", "burge.forms", "--format", "text"],
     "9e37e364796a53fb7b68159c40ad9dcbbaa3d5b99e24ec7abba841dc04bc2db8", 910),
], ids=["qs2_exceptional", "burge_forms"])
def test_text_stream_is_pinned(tmp_path, argv, sha, lines):
    # skipped rows with both sides, negative ints, rational L and word names
    path = tmp_path / "rows.txt"
    assert main(argv + ["--out", str(path)]) == 0
    data = path.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == sha


def test_rational_parameters_roundtrip(capsys):
    code, out, _ = run(
        ["verify", "gensum", "--N", "2", "--sigma", "1", "--ell", "0",
         "--M", "0..1", "--L1", "1/2,3/2", "--L2", "1/2"],
        capsys,
    )
    assert code == 0
    rows, summary = rows_of(out)
    assert summary["equal"] == 4
    assert {r["params"]["L1"] for r in rows} == {"1/2", "3/2"}


def test_byte_determinism(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["verify", "multinom.tnew", "--N", "2,3", "--L", "0..4", "--ell", "0..6"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parallel_matches_sequential(tmp_path):
    a, b = tmp_path / "seq.jsonl", tmp_path / "par.jsonl"
    args = ["verify", "burge.forms"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--jobs", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parallel_text_matches_sequential(tmp_path):
    a, b = tmp_path / "seq.txt", tmp_path / "par.txt"
    args = ["verify", "burge.forms", "--format", "text"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parallel_error_notes_keep_point_order(capsys, monkeypatch):
    fam = REGISTRY["qs2"]

    def sides(p, d):
        if (p.L1 + p.M) % 2 == 0:  # runs of ten errors, so chunks hold several
            raise InvalidParams("injected")
        return fam.sides(p, d)

    monkeypatch.setitem(REGISTRY, "qs2", dataclasses.replace(fam, sides=sides))
    argv = ["verify", "qs2", "--L1", "0..9", "--L2", "1", "--M", "0..5", "--ell", "0..9"]
    notes = {}
    for jobs in ("1", "2"):
        code, out, err = run(argv + ["--jobs", jobs], capsys)
        assert code == 1
        notes[jobs] = err.splitlines()
        errors = [r["params"] for r in rows_of(out)[0] if r["verdict"] == "error"]
        assert notes[jobs] == [f"qs2 {p}: InvalidParams: injected" for p in errors]
    assert notes["1"] == notes["2"] and len(notes["2"]) == 300


def test_pool_keeps_at_most_two_chunks_per_worker(capsys, monkeypatch):
    live, seen = set(), {"submitted": 0, "peak": 0}

    class Counting(ProcessPoolExecutor):
        # a chunk is outstanding from its submission until its result is read
        def submit(self, fn, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            live.add(future)
            seen["submitted"] += 1
            seen["peak"] = max(seen["peak"], len(live))
            read = future.result

            def result(*a, **kw):
                live.discard(future)
                return read(*a, **kw)

            future.result = result
            return future

    monkeypatch.setattr("qident.cli._new_pool", lambda jobs: Counting(max_workers=jobs))
    code, out, _ = run(["verify", "qs2", "--jobs", "2", "--L1", "-6..6", "--L2", "-6..6",
                        "--M", "0..2", "--ell", "-6..6"], capsys)
    assert code == 0 and rows_of(out)[1]["total"] == 6591
    assert seen["submitted"] == 103 and seen["peak"] == 4 and not live


@pytest.mark.parametrize("jobs,box,lines", [
    # about 600 kB of rows, far more than a pipe holds: the reader leaves mid-sweep,
    # like `| head -1`
    ("1", "-6..6", 1), ("2", "-6..6", 1),
    # one short row, held in the stdout buffer until the final flush; the reader
    # is gone before the child starts
    ("1", "1", 0),
])
def test_closed_pipe_exits_1_without_a_traceback(jobs, box, lines):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout buffered
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["verify", "qs2", "--jobs", jobs, "--L1", box, "--L2", box, "--M", "0..2",
            "--ell", box]
    read, write = os.pipe()
    reader = os.fdopen(read, "rb")
    if not lines:
        reader.close()
    proc = subprocess.Popen([sys.executable, "-c",
                             "import sys; from qident.cli import main; sys.exit(main())", *argv],
                            stdout=write, stderr=subprocess.PIPE, env=env)
    os.close(write)
    for _ in range(lines):
        assert reader.readline().startswith(b'{"identity_id": "qs2"')
    reader.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device that is always full")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failed_write_exits_2_with_one_line(capsys, jobs):
    # --out, in-process: the pool shuts down and leaves no worker behind
    for argv in (["verify", "qcv", "--jobs", jobs], ["eval", "qbin", "--m", "2", "--n", "2"], ["tree"]):
        assert main(argv + ["--out", "/dev/full"]) == 2
        assert multiprocessing.active_children() == []
        assert capsys.readouterr() == ("", "error: --out /dev/full: No space left on device\n")
    # stdout, in a child that exits without a traceback or an exit-time report
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", "import sys; from qident.cli import main; sys.exit(main())",
                               "verify", "qcv", "--jobs", jobs], stdout=full, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, b"error: stdout: No space left on device\n")


def _launch(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=60)


# after the command, which qident modules ran and whether the pool machinery loaded;
# a lazily loaded module that never ran has no __builtins__ (reading its __dict__
# through object.__getattribute__ does not run it)
_PROBE = """
import json, sys
from qident.cli import main
code = main(sys.argv[1:])
ran = [name for name, mod in sys.modules.items() if name.startswith("qident.")
       and "__builtins__" in object.__getattribute__(mod, "__dict__")]
print(json.dumps([code, sorted(ran), "concurrent.futures.process" in sys.modules]))
"""


@pytest.mark.parametrize("argv,present,absent,pool", [
    (["verify", "qpoly.partitions", "--limit", "0"], {"qpoly"},
     {"burge", "multinom", "saalschutz", "series", "lattice"}, False),
    (["verify", "series.limlm", "--N", "2", "--ell", "0", "--sigma", "0"], {"series", "lattice"},
     {"burge", "multinom", "saalschutz"}, False),
    # the parent of a pool evaluates no point, but runs the family's module before forking
    (["verify", "qs2", "--L1", "0", "--L2", "0", "--M", "0", "--ell", "0", "--jobs", "2"],
     {"saalschutz"}, {"burge", "multinom", "series"}, True),
    # a tree checks its nodes in this process, through the burge families only
    (["tree", "--depth", "1"], {"burge", "lattice"}, {"multinom", "saalschutz", "series"}, False),
])
def test_a_command_runs_only_the_modules_it_uses(argv, present, absent, pool):
    proc = _launch("-c", _PROBE, *argv)
    code, ran, pool_loaded = json.loads(proc.stdout.decode().splitlines()[-1])
    assert code == 0 and proc.stderr == b""
    assert {f"qident.{name}" for name in present} <= set(ran)
    assert not {f"qident.{name}" for name in absent} & set(ran)
    assert pool_loaded == pool


def test_lazily_loaded_modules_are_package_attributes():
    proc = _launch("-c", "import qident, sys; print(qident.series is sys.modules['qident.series'],"
                         " qident.series.limlm_sides.__module__)")
    assert proc.stdout.decode().split() == ["True", "qident.series"]


def test_python_dash_m_runs_the_command_line():
    proc = _launch("-m", "qident", "eval", "qbin", "--m", "2", "--n", "2")
    assert proc.returncode == 0 and proc.stdout == b"1 + q + 2*q^2 + q^3 + q^4\n"
    assert _launch("-m", "qident", "verify", "nope").returncode == 2


def test_text_format_has_no_ansi_when_piped(capsys, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    code, out, _ = run(["verify", "series.products", "--format", "text"], capsys)
    assert code == 0
    assert "\x1b[" not in out
    assert out.strip().splitlines()[-1].startswith("# series.products:")


# --- exit-code contract with injected verdicts ---------------------------------------

def _install_fake(outcomes):
    def sides(params, d):
        v = outcomes[params["i"]]
        if v == "equal":
            return ONE, ONE
        if v == "mismatch":
            return QPoly({1: 1}), ZERO
        raise QIdentError("synthetic failure")

    REGISTRY["__fake"] = Family(
        "__fake", (ParamSpec("i", "int"),), (("i", range(len(outcomes))),), sides,
        lambda params: outcomes[params["i"]] != "skipped_precondition",
    )


@settings(max_examples=40, deadline=None)
@given(outcomes=st.lists(
    st.sampled_from(["equal", "mismatch", "skipped_precondition", "error"]),
    min_size=1, max_size=8,
))
def test_exit_code_contract(tmp_path_factory, outcomes):
    out_path = tmp_path_factory.mktemp("fake") / "rows.jsonl"
    _install_fake(outcomes)
    try:
        code = main(["verify", "__fake", "--out", str(out_path)])
    finally:
        del REGISTRY["__fake"]
    lines = [json.loads(ln) for ln in out_path.read_text().splitlines()]
    rows, summary = lines[:-1], lines[-1]
    bad = any(v in ("mismatch", "error") for v in outcomes)
    # a run with no equal or mismatch point checked nothing, so it fails too
    checked = any(v in ("equal", "mismatch") for v in outcomes)
    assert code == (1 if bad or not checked else 0)
    assert summary["exit_code"] == code
    for row, want in zip(rows, outcomes):
        assert row["verdict"] == want
        if want == "mismatch":
            assert row["diff_repr"]


def test_registry_ids_are_stable():
    assert list(REGISTRY) == [
        "qs2", "qcv", "sears", "gensum",
        "burge.bt", "burge.bt2", "burge.traf1", "burge.traf2",
        "burge.forms", "burge.tree",
        "multinom.tnew", "multinom.classical", "multinom.diff",
        "series.durfee", "series.limlm", "series.cbp",
        "series.strings", "series.products",
        "qpoly.partitions",
    ]
    assert set(EVAL_REGISTRY) >= {"qbin", "tmultinomial", "tnew", "x", "closed"}


# --- one precondition stage, one grid rule -------------------------------------------

@pytest.mark.parametrize("target,family,errors,skips", [
    ("qident.multinom.half_int", "multinom.diff", 145, 0),
    ("qident.series.inv_qpoch", "series.limlm", 16, 14),
    ("qident.series.inv_qpoch", "series.cbp", 54, 0),
])
def test_internal_fault_is_an_error_not_a_skip(capsys, monkeypatch, target, family,
                                                errors, skips):
    def broken(*args, **kwargs):
        raise InvalidParams("injected fault")

    monkeypatch.setattr(target, broken)
    code, out, err = run(["verify", family], capsys)
    assert code == 1
    rows, summary = rows_of(out)
    # only the declared precondition skips (limlm's parity rule); every
    # point past it reaches the broken helper and becomes an error row
    assert (summary["error"], summary["skipped_precondition"]) == (errors, skips)
    assert summary["equal"] == 0 and summary["exit_code"] == 1
    assert "InvalidParams: injected fault" in err


def test_override_fills_unnamed_axes_from_the_grid(capsys):
    code, out, _ = run(["verify", "burge.traf1", "--M", "2"], capsys)
    _, summary = rows_of(out)
    assert code == 0 and summary["total"] == summary["equal"] == 36

    code, out, _ = run(["verify", "burge.bt", "--M1", "1", "--L1", "1",
                        "--M2", "1", "--L2", "1"], capsys)
    rows, _ = rows_of(out)
    assert code == 0
    assert [tuple(r["params"][k] for k in ("p", "pprime", "r", "s")) for r in rows] == [
        (1, 2, 0, 1), (2, 3, 1, 1), (1, 3, 0, 1)]

    # the parity rule on ell and the half-integer rule on L1, L2 follow N
    code, out, _ = run(["verify", "gensum", "--N", "5"], capsys)
    _, summary = rows_of(out)
    assert code == 0
    assert summary["total"] == summary["equal"] == 2268


def test_override_names_part_of_a_joint_axis(capsys):
    # naming p splits the label tuples: the unnamed labels sweep their own values
    code, out, _ = run(["verify", "burge.bt", "--p", "1", "--M1", "0", "--L1", "0",
                        "--M2", "0", "--L2", "0"], capsys)
    rows, _ = rows_of(out)
    assert code == 0
    assert [tuple(r["params"][k] for k in ("p", "pprime", "r", "s")) for r in rows] == [
        (1, 2, 0, 1), (1, 2, 1, 1), (1, 3, 0, 1), (1, 3, 1, 1)]


def test_full_override_crosses_in_parameter_order(capsys):
    # the default grid of series.strings runs ell-major; naming every axis
    # gives the plain cross product in parameter order (N, m, ell)
    code, out, _ = run(["verify", "series.strings", "--N", "2", "--m", "0,1",
                        "--ell", "0..2", "--trunc", "4"], capsys)
    rows, _ = rows_of(out)
    assert [(r["params"]["m"], r["params"]["ell"]) for r in rows] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert {r["verdict"] for r in rows if (r["params"]["m"] - r["params"]["ell"]) % 2} == {
        "skipped_precondition"}


def test_parameter_named_like_an_option_prefix(capsys):
    # sears has a parameter f, which must not be read as an abbreviated --format
    code, out, _ = run(["verify", "sears", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
                        "--e", "0", "--f", "0", "--g", "0"], capsys)
    assert code == 0
    rows, summary = rows_of(out)
    assert rows[0]["params"]["f"] == 0 and summary["equal"] == 1


def test_suite_fails_a_family_that_checked_nothing(capsys, monkeypatch):
    fake = Family("__fake", (ParamSpec("i", "int"),), (("i", range(3)),),
                  lambda params, d: (ONE, ONE), lambda params: False)
    monkeypatch.setattr("qident.cli.REGISTRY", {"__fake": fake})
    code, out, err = run(["suite"], capsys)
    assert code == 1
    assert err == "__fake: no point was checked, so nothing was verified\n"
    summaries = [json.loads(ln) for ln in out.splitlines() if '"summary"' in ln]
    assert [(s["identity_id"], s["exit_code"]) for s in summaries] == [("__fake", 1), ("suite", 1)]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_suite_timing_covers_every_family(capsys, monkeypatch, jobs):
    import time

    def slow(params, d):
        time.sleep(0.005)
        return ONE, ONE

    fakes = {name: Family(name, (ParamSpec("i", "int"),), (("i", range(4)),), slow)
             for name in ("__a", "__b")}
    monkeypatch.setattr("qident.cli.REGISTRY", fakes)
    code, out, _ = run(["suite", "--timing", "--jobs", jobs], capsys)
    assert code == 0
    summaries = [json.loads(ln) for ln in out.splitlines() if '"summary"' in ln]
    assert [s["identity_id"] for s in summaries] == ["__a", "__b", "suite"]
    *families, suite = [s["elapsed_ms"] for s in summaries]
    assert min(families) > 0
    assert suite >= max(families)
    # without --timing every summary keeps the byte-stable 0
    code, out, _ = run(["suite", "--jobs", jobs], capsys)
    assert {json.loads(ln)["elapsed_ms"] for ln in out.splitlines()} == {0}


def test_burge_parent_labels_are_validated(capsys):
    # the parent is evaluated at level 1, where p' < p is invalid; a label
    # override that gives the parent such labels is out of the edge's domain
    code, out, err = run(["verify", "burge.bt", "--p", "3", "--pprime", "2", "--r", "1", "--s", "1",
                          "--M1", "1", "--L1", "1", "--M2", "1", "--L2", "1"], capsys)
    assert code == 1
    rows, summary = rows_of(out)
    assert [r["verdict"] for r in rows] == ["skipped_precondition"]
    assert summary["skipped_precondition"] == summary["total"] == 1
    assert summary["equal"] == 0 and "lhs_repr" not in rows[0]
    assert err == "burge.bt: no point was checked, so nothing was verified\n"


_BOUNDS_AT_ZERO = ["--M1", "0", "--L1", "0", "--M2", "0", "--L2", "0"]


@pytest.mark.parametrize("argv", [
    ["burge.bt", "--p", "0", "--pprime", "2", "--r", "0", "--s", "1", *_BOUNDS_AT_ZERO],
    ["burge.bt2", "--p", "1", "--pprime", "0", "--r", "0", "--s", "1", *_BOUNDS_AT_ZERO],
    ["burge.bt", "--p", "2", "--pprime", "1", "--r", "0", "--s", "1", *_BOUNDS_AT_ZERO],
    ["burge.traf2", "--p", "0", "--pprime", "2", "--r", "0", "--s", "1", "--N", "2", "--M", "0", "--L", "0"],
    ["burge.traf1", "--p", "3", "--pprime", "2", "--r", "0", "--s", "1", "--N", "2", "--M", "0", "--L", "0"],
])
def test_edge_parent_outside_the_domain_is_skipped(capsys, argv):
    # labels invalid at level 1 are out of every edge family's domain: no
    # division by p = 0 in a safety scan, and no error row from the parent
    code, out, err = run(["verify", *argv], capsys)
    rows, summary = rows_of(out)
    assert code == 1 and rows
    assert {r["verdict"] for r in rows} == {"skipped_precondition"}
    assert summary["skipped_precondition"] == summary["total"] == len(rows)
    assert "Traceback" not in err and "Error" not in err


def test_tree_mismatch_carries_the_failing_node(capsys, monkeypatch):
    from qident import burge

    real = burge.closed_form

    def wrong(name, M, L, n_lat=1, sigma=0):
        value = real(name, M, L, n_lat, sigma)
        return value + ONE if name == "euler" and M == 1 else value

    monkeypatch.setattr("qident.burge.closed_form", wrong)
    code, out, _ = run(["verify", "burge.tree"], capsys)
    assert code == 1
    rows, _ = rows_of(out)
    # node 2 is (2,3,1,1), the euler node; its first failing point is (M, L) = (1, 0)
    assert rows[0]["verdict"] == "mismatch"
    assert rows[0]["witness"] == {"node": 2, "M": 1, "L": 0}
    assert (rows[0]["lhs_repr"], rows[0]["rhs_repr"], rows[0]["diff_repr"]) == ("1", "2", "-1")


def _patch_euler(monkeypatch, at_m, change):
    """closed_form with the euler display changed by `change` at M = at_m."""
    from qident import burge

    real = burge.closed_form

    def patched(name, M, L, n_lat=1, sigma=0):
        value = real(name, M, L, n_lat, sigma)
        return change(value) if name == "euler" and M == at_m else value

    monkeypatch.setattr("qident.burge.closed_form", patched)


def _planted(value):
    raise ZeroDivisionError("planted")


def test_tree_with_a_raising_point_writes_its_document(capsys, monkeypatch, tmp_path):
    # one bad point makes its node false and leaves a note; the tree still comes out
    _patch_euler(monkeypatch, 2, _planted)
    out_path = tmp_path / "tree.json"
    code, out, err = run(["tree", "--depth", "2", "--out", str(out_path)], capsys)
    assert code == 1 and out == ""
    doc = json.loads(out_path.read_text())
    assert [nd["verified"] for nd in doc["nodes"]] == [True, True, False, True, True, True, True]
    assert doc["all_verified"] is False
    # the row loop's notes, one per raising point (M = 2, L in 0..2), and no witness line
    notes = [ln for ln in err.splitlines() if ln.startswith("burge.forms ")]
    assert notes == [f"burge.forms {{'name': 'euler', 'N': 1, 'sigma': 0, 'M': 2, 'L': {k}}}: "
                     "ZeroDivisionError: planted" for k in range(3)]
    assert "Traceback" in err and not err.startswith("node ")
    # the suite's family gives the same fault an error row carrying the note, never equal
    code, out, err = run(["verify", "burge.tree"], capsys)
    rows, summary = rows_of(out)
    assert code == 1 and [r["verdict"] for r in rows] == ["error"]
    assert err.startswith("burge.tree {'depth': 3, 'N': 1, 'sigma': 0}: QIdentError: burge.forms "
                          "{'name': 'euler', 'N': 1, 'sigma': 0, 'M': 2, 'L': 0}: ZeroDivisionError: planted")


def test_tree_names_the_witness_of_a_false_node(capsys, monkeypatch):
    code, good, _ = run(["tree", "--depth", "2"], capsys)
    assert code == 0
    _patch_euler(monkeypatch, 1, lambda value: value + ONE)
    code, out, err = run(["tree", "--depth", "2"], capsys)
    assert code == 1
    # node 2 is (2,3,1,1), the euler node; its first failing point is (M, L) = (1, 0)
    assert err == "node 2 (2, 3, 1, 1) burge.forms M=1 L=0 lhs[1] rhs[2]\n"
    # the document keeps its form: only the node's verdict and the total change
    want = json.loads(good)
    want["nodes"][2]["verified"], want["all_verified"] = False, False
    assert out == json.dumps(want, indent=1) + "\n"


# --- output path and per-point validation ---------------------------------------------

@pytest.mark.parametrize("argv", [
    ["verify", "qpoly.partitions"],
    ["suite"],
    ["tree", "--depth", "0"],
    ["eval", "qbin", "--m", "1", "--n", "1"],
], ids=["verify", "suite", "tree", "eval"])
def test_out_into_missing_directory_is_config_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.jsonl"
    code, out, err = run(argv + ["--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: --out {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_verify_gensum_builds_each_point_once(capsys, monkeypatch):
    from qident.saalschutz import SaalschutzParams

    calls = []
    real = SaalschutzParams.violation
    monkeypatch.setattr(SaalschutzParams, "violation", lambda self: calls.append(self) or real(self))
    code, out, _ = run(["verify", "gensum", "--N", "1..3", "--M", "1", "--L1", "1/2,1,3/2"], capsys)
    rows, summary = rows_of(out)
    assert code == 0 and summary["equal"] > 0 and summary["skipped_precondition"] > 0
    # skipped and checked rows alike build their point once; the precondition
    # validates it, and each of a checked row's two sides validates it again
    assert len({id(c) for c in calls}) == len(rows) == summary["total"]
    assert len(calls) == summary["total"] + 2 * summary["equal"]


@pytest.mark.parametrize("module, record, argv", [
    ("multinom", "MultinomialQuery", ["verify", "multinom.tnew", "--N", "2,3", "--L", "0..3"]),
    ("burge", "BurgeParams", ["verify", "burge.forms", "--name", "nn,tadpole,slater", "--M", "0..2"]),
    ("multinom", "MultinomialQuery", ["verify", "multinom.classical"]),
])
def test_sides_reuse_the_validated_row_record(capsys, monkeypatch, module, record, argv):
    import importlib

    cls = getattr(importlib.import_module(f"qident.{module}"), record)
    calls = []
    real = cls.violation
    monkeypatch.setattr(cls, "violation", lambda self: calls.append(self) or real(self))
    code, out, _ = run(argv, capsys)
    rows, summary = rows_of(out)
    assert code == 0 and summary["equal"] == summary["total"] > 0
    # the precondition validates the row's record and the side that takes it
    # validates it again; a record validated once is one a side built itself
    uses = Counter(map(id, calls))
    assert set(uses.values()) <= {1, 2}
    assert sum(n == 2 for n in uses.values()) == len(rows) == summary["total"]
