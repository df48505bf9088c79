"""End-to-end acceptance checks.

Each test covers one headline guarantee on its full stated grid and prints a
single summary line; run with -v (or -s for the detail lines) to see one
pass/fail row per criterion.  Grids reuse the versioned CLI defaults so the
command line and this file can never drift apart.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest

from qident.burge import build_tree
from qident.cli import main, tree_verdicts
from qident.lattice import (
    cartan,
    enumerate_admissible,
    solve_system,
)
from qident.qpoly import ONE, Truncation, mul, truncated_equal
from qident.saalschutz import ClassicParams, qs2_exceptional
from qident.series import StringFunctionQuery, string_fermionic, string_spinon


def sweep(tmp_path, *args):
    out = tmp_path / (args[0] + ".jsonl")
    t0 = time.perf_counter()
    code = main(["verify", *args, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    lines = [json.loads(ln) for ln in out.read_text().splitlines()]
    return code, lines[:-1], lines[-1], elapsed


def report(label, summary, elapsed):
    print(
        f"{label}: total={summary['total']} equal={summary['equal']}"
        f" mismatch={summary['mismatch']} skipped={summary['skipped_precondition']}"
        f" error={summary['error']} in {elapsed:.1f}s"
    )


def test_criterion_1_generalized_sum_grid(tmp_path):
    code, rows, summary, elapsed = sweep(tmp_path, "gensum")
    report("criterion 1 gensum", summary, elapsed)
    assert code == 0
    assert summary["mismatch"] == 0 and summary["error"] == 0
    assert summary["equal"] >= 500
    assert elapsed < 120
    seen_n = set()
    for r in rows:
        p = r["params"]
        seen_n.add(int(p["N"]))
        assert abs(int(p["ell"])) <= 4
        assert 0 <= int(p["M"]) <= 6
        assert 0 <= Fraction(p["L1"]) <= 5 and 0 <= Fraction(p["L2"]) <= 5
    assert seen_n == {1, 2, 3, 4}


def test_criterion_2_terminating_sum_box_with_exceptions(tmp_path):
    code, rows, summary, elapsed = sweep(tmp_path, "qs2", "--include-exceptional")
    report("criterion 2 qs2", summary, elapsed)
    assert code == 0
    assert summary["total"] == 13 ** 4
    assert summary["mismatch"] == 0 and summary["error"] == 0
    box = range(-6, 7)
    expected = sum(
        qs2_exceptional(ClassicParams(l1, l2, m, e))
        for l1, l2, m, e in itertools.product(box, box, box, box)
    )
    skipped = [r for r in rows if r["verdict"] == "skipped_precondition"]
    assert len(skipped) == expected > 0
    for r in skipped:
        assert r["lhs_repr"] == "0"
        assert r["rhs_repr"] != "0"


def test_criterion_3_balanced_random_tuples(tmp_path):
    code, rows, summary, elapsed = sweep(tmp_path, "sears")
    report("criterion 3 sears", summary, elapsed)
    assert code == 0
    assert summary["total"] >= 1000
    assert summary["equal"] == summary["total"]
    assert elapsed < 60
    for r in rows[:50]:
        p = {k: int(v) for k, v in r["params"].items()}
        assert p["a"] + p["b"] == p["c"] + p["d"] + p["f"]
        assert all(-6 <= v <= 8 for v in p.values())


def test_criterion_4_tree_nodes_match_closed_forms(tmp_path):
    nodes = build_tree(3, 1, 0)
    named = {
        (nd.p, nd.pprime, nd.r, nd.s): (nd.closed_form_name, verdict)
        for nd, (verdict, _, _) in zip(nodes, tree_verdicts(nodes, 2))
        if nd.closed_form_name
    }
    for labels, want in [
        ((1, 3, 0, 1), "nn"),
        ((2, 3, 1, 1), "euler"),
        ((3, 4, 1, 1), "ising"),
        ((2, 5, 1, 2), "rr"),
    ]:
        name, verified = named[labels]
        assert name == want and verified is True

    code, rows, summary, elapsed = sweep(tmp_path, "burge.forms")
    report("criterion 4 closed forms", summary, elapsed)
    assert code == 0
    assert summary["mismatch"] == 0 and summary["error"] == 0
    per = {}
    for r in rows:
        if r["verdict"] == "equal":
            key = (r["params"]["name"], int(r["params"]["N"]))
            per[key] = per.get(key, 0) + 1
    for classic in ("nn", "euler", "ising", "rr"):
        assert per[(classic, 1)] == 81
    for level in ("tadpole", "euler_n", "a_n"):
        for n in (2, 3):
            assert per[(level, n)] > 0
    assert per[("slater", 2)] > 0


def test_criterion_5_level_transforms_route_vs_direct(tmp_path):
    for fam in ("burge.traf1", "burge.traf2"):
        code, rows, summary, elapsed = sweep(tmp_path, fam)
        report(f"criterion 5 {fam}", summary, elapsed)
        assert code == 0
        assert summary["equal"] == summary["total"] == 216
        assert summary["mismatch"] == 0


def test_criterion_6_multinomial_families(tmp_path):
    for fam in ("multinom.tnew", "multinom.classical", "multinom.diff"):
        code, rows, summary, elapsed = sweep(tmp_path, fam)
        report(f"criterion 6 {fam}", summary, elapsed)
        bad = [r for r in rows if r["verdict"] in ("mismatch", "error")]
        if bad:
            lines = "\n".join(json.dumps(r) for r in bad[:20])
            pytest.fail(
                "COUNTEREXAMPLE FOUND in "
                f"{fam} ({len(bad)} failing points):\n{lines}"
            )
        assert code == 0
        assert summary["equal"] > 100


def test_criterion_7_series_families_and_string_ratio(tmp_path):
    start = time.perf_counter()
    for fam in ("series.durfee", "series.limlm", "series.cbp",
                "series.products", "series.strings"):
        code, rows, summary, elapsed = sweep(tmp_path, fam)
        report(f"criterion 7 {fam}", summary, elapsed)
        assert code == 0
        assert summary["mismatch"] == 0 and summary["error"] == 0
        assert summary["equal"] > 0

    # route agreement once more on the bare sums: the two routes differ by an
    # explicit monomial, which is multiplied in and reported here
    d = 20
    checked = 0
    for n in (1, 2, 3):
        for ell in range(0, n + 1):
            for m in range(ell % 2, 7, 2):
                sq = StringFunctionQuery(n, m, ell, 1 if ell == n else 0, Truncation(d))
                chi = Fraction((ell + 1) ** 2, 4 * (n + 2)) - Fraction(1, 8)
                sp_exp = Fraction(m * m, 4 * n) - chi
                fe_exp = Fraction(ell * ell, 4 * n) - chi
                bare_sp = string_spinon(sq).times_monomial(1, sp_exp.numerator, sp_exp.denominator)
                bare_fe = string_fermionic(sq).times_monomial(1, fe_exp.numerator, fe_exp.denominator)
                ratio = Fraction(ell * ell - m * m, 4 * n)
                cap = Truncation(d - 2 - abs(ratio))
                assert truncated_equal(
                    mul(bare_fe, ONE, cap),
                    mul(bare_sp.times_monomial(1, ratio.numerator, ratio.denominator), ONE, cap),
                    cap,
                ), (n, ell, m)
                print(f"criterion 7 ratio: N={n} ell={ell} m={m} -> q^({ratio})")
                checked += 1
    assert checked == 32
    combined = time.perf_counter() - start
    print(f"criterion 7 combined: {combined:.1f}s")
    assert combined < 180


def test_criterion_8_partition_counts_and_lattice_enumeration(tmp_path):
    code, rows, summary, elapsed = sweep(tmp_path, "qpoly.partitions")
    report("criterion 8 partitions", summary, elapsed)
    assert code == 0
    assert summary["equal"] == summary["total"] == 1

    cases = [
        (2, (4,), 0),
        (2, (5,), 2),  # offsets t stand for t/(2N): here 1/2
        (3, (2, 3), 0),
        (3, (4, 0), 2),  # 1/3
        (3, (3, 3), None),
        (4, (2, 1, 2), 0),
        (4, (3, 0, 1), 4),  # 1/2
        (4, (0, 4, 0), None),
    ]
    for n, v, offset in cases:
        cd = cartan(n)
        rank = cd.rank
        budget = sum(v) // 2
        expected = []
        for n_vec in itertools.product(range(budget + 1), repeat=rank):
            if sum(n_vec) > budget:
                continue
            if offset is not None:
                # offset/(2N) + (Cinv n)_1 in Z, with (Cinv)_1j = (N - j)/N for the A family
                first = sum(Fraction((n - j) * x, n) for j, x in enumerate(n_vec, 1))
                if (Fraction(offset, 2 * n) + first).denominator != 1:
                    continue
            sol = solve_system(cd, n_vec, v, cd.qform(n_vec))
            if sol is not None and all(x >= 0 for x in sol.m_vec):
                expected.append(n_vec)
        got = [s.n_vec for s in enumerate_admissible(cd, v, offset)]
        assert sorted(got) == sorted(expected), (n, v, offset)
    print(f"criterion 8 lattice: {len(cases)} source/offset cases cross-checked")
