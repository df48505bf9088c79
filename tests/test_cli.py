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
    Family,
    ParamSpec,
    main,
)
from qident.errors import InvalidParams, QIdentError
from qident.qpoly import ONE, ZERO, QPoly


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
    fam = REGISTRY["qs2"]

    def sides(p, d):
        if p["M"] == 1:
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
