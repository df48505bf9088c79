import dataclasses
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.cli import (
    EVAL_REGISTRY,
    REGISTRY,
    GRID_VERSION,
    IdentitySpec,
    ParamSpec,
    main,
)
from qident.errors import QIdentError
from qident.qpoly import ONE, ZERO


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
    code, out, _ = run(
        ["verify", "qs2", "--L1", "-1", "--L2", "1", "--M", "1", "--ell", "-1"], capsys
    )
    assert code == 0
    rows, _ = rows_of(out)
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
    code, _, err = run(["verify", "sears", "--a", "0"], capsys)
    assert code == 2
    assert "narrow the ranges" in err


def test_eval_unknown_and_missing(capsys):
    code, _, err = run(["eval", "nothing"], capsys)
    assert code == 2
    code, _, err = run(["eval", "qbin", "--m", "2"], capsys)
    assert code == 2 and "--n" in err


def test_negative_trunc_is_config_error(capsys):
    for argv in (["verify", "series.durfee", "--trunc", "-1"],
                 ["eval", "qbin", "--m", "1", "--n", "1", "--trunc", "-1"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == "error: --trunc must be >= 0, got -1\n"


def test_nonpositive_jobs_is_config_error(capsys):
    for argv in (["verify", "qs2", "--jobs", "0"], ["suite", "--jobs", "-3"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: --jobs must be >= 1") and err.count("\n") == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_checker_exception_is_one_error_row(capsys, monkeypatch, jobs):
    spec = REGISTRY["qs2"]

    def check(p, d, opts):
        if p["M"] == 1:
            raise ZeroDivisionError("injected")
        return spec.check(p, d, opts)

    monkeypatch.setitem(REGISTRY, "qs2", dataclasses.replace(spec, check=check))
    code, out, err = run(["verify", "qs2", "--L1", "1", "--L2", "1", "--M", "0..2",
                          "--ell", "0", "--jobs", jobs], capsys)
    assert code == 1
    rows, summary = rows_of(out)
    assert [r["verdict"] for r in rows] == ["equal", "error", "equal"]
    assert summary["error"] == 1 and summary["equal"] == 2 and summary["exit_code"] == 1
    assert "ZeroDivisionError: injected" in err


def test_cbp_mismatch_reports_failing_L(capsys, monkeypatch):
    monkeypatch.setattr("qident.cli.conjugate_pair_failure", lambda bq: (2, ONE, ZERO))
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
    code, _, err = run(["tree", "--depth", "7"], capsys)
    assert code == 2
    code, _, err = run(["tree", "--depth", "-1"], capsys)
    assert code == 2


def test_tree_negative_grid_is_config_error(capsys):
    code, out, err = run(["tree", "--depth", "1", "--grid", "-1"], capsys)
    assert code == 2 and out == ""
    assert err == "error: --grid must be >= 0, got -1\n"


def test_tree_odd_level_sigma_config_error(capsys):
    code, _, err = run(["tree", "--depth", "1", "--N", "3", "--sigma", "1"], capsys)
    assert code == 2


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


def test_text_format_has_no_ansi_when_piped(capsys, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    code, out, _ = run(["verify", "series.products", "--format", "text"], capsys)
    assert code == 0
    assert "\x1b[" not in out
    assert out.strip().splitlines()[-1].startswith("# series.products:")


# --- exit-code contract with injected verdicts ---------------------------------------

def _install_fake(outcomes):
    def check(params, d, opts):
        v = outcomes[params["i"]]
        if v == "equal":
            return ("equal", None, None, None, None)
        if v == "skipped_precondition":
            return ("skipped_precondition", None, None, None, None)
        if v == "mismatch":
            return ("mismatch", "q", "0", "q", None)
        raise QIdentError("synthetic failure")

    spec = IdentitySpec(
        "__fake", (ParamSpec("i", "int"),), check,
        lambda: ({"i": i} for i in range(len(outcomes))),
        {"i": tuple(range(len(outcomes)))},
    )
    REGISTRY["__fake"] = spec


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
    assert code == (1 if bad else 0)
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
