"""Negative controls: wrong versions of an identity, put into the program,
must be caught through the command line's row loop on the default grid, at
one job and in a pool.

For qs2, four wrong versions of the q-Pfaff-Saalschutz sum each go into a
copy of the family.

The counts are of the 27,973 checked points of the 28,561-point grid (the
rest are skipped as exceptional).  Some caught points compare 0 with 0 under
the true identity, so a row loop that took two zero sides for equal without
comparing them, or a side that returned 0 early outside its support, would
lose them.

For burge.bt2, the second transform's child rule loses its dependence on
M1 - M2 or on L1 - L2.  Its default grid has 483 checked points of 768; the
rest fail the safety scan.
"""

import dataclasses
import json

import pytest

from qident import burge
from qident.cli import REGISTRY, main
from qident.qbinom import qbin
from qident.qpoly import ZERO, mul
from qident.saalschutz import ClassicParams, qs2_lhs, qs2_rhs

CHECKED = 27_973


def _lhs(p, exponent=lambda i, ell: i * (i + ell), outer_bottom=lambda M, i: M - i):
    """sum over i of q^exponent [L1+L2+M-i over outer_bottom] [L1 over i+ell] [L2 over i],
    every binomial built, with no window or memo."""
    total = ZERO
    for i in range(0, 13):  # i <= L2 <= 6 on the default grid
        a, b, c = qbin(p.L1 + p.L2 + p.M - i, outer_bottom(p.M, i)), qbin(p.L1, i + p.ell), qbin(p.L2, i)
        if not (a.is_zero() or b.is_zero() or c.is_zero()):
            total = total + mul(mul(a, b), c).times_monomial(1, exponent(i, p.ell))
    return total


def _rhs(L1, L2, M, ell, top_shift=0):
    return mul(qbin(L1 + M + top_shift, M + ell), qbin(L2 + M + ell, M))


# name -> (sides, mismatches, mismatches where the true identity compares 0 with 0)
CONTROLS = {
    "true": (lambda p, d: (qs2_lhs(p), qs2_rhs(p)), 0, 0),
    "left_exponent": (lambda p, d: (_lhs(p, exponent=lambda i, ell: i * (i + ell + 1)), qs2_rhs(p)),
                      1393, 0),
    "right_top": (lambda p, d: (qs2_lhs(p), _rhs(*p, top_shift=1)), 2393, 580),
    "outer_bottom": (lambda p, d: (_lhs(p, outer_bottom=lambda M, i: M - i - 1), qs2_rhs(p)), 1963, 0),
    "right_L1_L2_exchanged": (lambda p, d: (qs2_lhs(p), _rhs(p.L2, p.L1, p.M, p.ell)), 2604, 1176),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("control", list(CONTROLS))
def test_wrong_qs2_is_caught_by_the_runner(capsys, monkeypatch, control, jobs):
    sides, mismatches, zero_zero = CONTROLS[control]
    monkeypatch.setitem(REGISTRY, "qs2", dataclasses.replace(REGISTRY["qs2"], sides=sides))
    code = main(["verify", "qs2", "--jobs", jobs])
    out, err = capsys.readouterr()
    lines = [json.loads(line) for line in out.splitlines()]
    summary, rows = lines[-1], lines[:-1]
    assert summary["equal"] + summary["mismatch"] == CHECKED
    assert summary["mismatch"] == mismatches and summary["error"] == 0
    assert code == (1 if mismatches else 0) and err == ""
    caught = [ClassicParams(**r["params"]) for r in rows if r["verdict"] == "mismatch"]
    assert len(caught) == mismatches
    assert sum(qs2_lhs(p).is_zero() and qs2_rhs(p).is_zero() for p in caught) == zero_zero


EDGE_CHECKED = 483

# name -> (factors on M12 and L12 in the second rule, mismatches)
EDGE_CONTROLS = {
    "true": ((1, 1), 0),
    "dropping_M12": ((0, 1), 275),
    "dropping_L12": ((1, 0), 286),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("control", list(EDGE_CONTROLS))
def test_wrong_second_transform_rule_is_caught_by_the_runner(capsys, monkeypatch, control, jobs):
    (keep_m12, keep_l12), mismatches = EDGE_CONTROLS[control]
    real = burge.child_labels

    def rule(labels, tag, n_lat=1, m12=0, l12=0):
        return real(labels, tag, n_lat, keep_m12 * m12, keep_l12 * l12)

    monkeypatch.setattr(burge, "child_labels", rule)
    code = main(["verify", "burge.bt2", "--jobs", jobs])
    out, err = capsys.readouterr()
    lines = [json.loads(line) for line in out.splitlines()]
    summary, rows = lines[-1], lines[:-1]
    assert summary["equal"] + summary["mismatch"] == EDGE_CHECKED
    assert summary["mismatch"] == mismatches and summary["error"] == 0
    assert code == (1 if mismatches else 0) and err == ""
    assert sum(r["verdict"] == "mismatch" for r in rows) == mismatches
