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

For gensum, four wrong versions of the lattice generalization go into a copy
of the family, each written out here over the package's lattice sums: the
left side's inner exponent, its outer bottom, the right side's b1 bottom,
and L1 exchanged with L2 on the right.  Every one of its 8,806 default points
is checked.

For burge.forms, three wrong displays go into burge.CLOSED_FORMS, each in
place of every entry that shares its evaluator: the Euler display with every
exponent off by one (times q), the Rogers-Ramanujan display with its inner
binomial bottom off by one, and the lattice display (tadpole and A_N) with
the parity of sigma flipped in its filter.  All 909 default points are
checked; no catching point compares 0 with 0 under the true display.  The
same displays are the closed-form checks of `qident tree`, which checks only
M, L <= 2: each control names the nodes that come out false there.  The
flipped parity reaches only even N, so the level-1 tree cannot see it.

For qcv, sears and multinom.tnew, three wrong versions each go into a copy of
the family, written out here: q-Chu-Vandermonde with its exponent off by one,
its right bottom off by one, or L1 and L2 exchanged on the right; Sears's
transform with its left exponent off by one, a right binomial top off by one,
or its left sum's first term dropped; the quadratic-exponent T_0 with its
exponent off by i/N, its two binomial tops exchanged, or its last i dropped.
Their default grids check 1,261 points (70 more are exceptional), 1,200 and
351.  Every wrong version is caught, some at points where the true identity
compares 0 with 0: the signed modified binomials of Sears's sums cancel.

For series.products, three wrong versions each break one family of its three
default points: rr's product takes the residues 2 and 3 mod 5 (the second
Rogers-Ramanujan product against the first sum), slater's sum takes
q^(n^2+n) for q^(n^2), and ising's sum keeps the odd n for the even.  For
qpoly.partitions, cli._partition_counts starts its parts at 2.  Its one
default point, at limit 50, is caught.  No catching point of either family
compares 0 with 0: every side is a series with constant term 1.
"""

import dataclasses
import functools
import json
from fractions import Fraction

import pytest

from qident import burge, cli, multinom, series
from qident.cli import REGISTRY, main
from qident.lattice import axis_source, cartan, class_terms, i_sum, system_sum
from qident.qbinom import qbin, qbin_mod_tb
from qident.qpoly import ONE, ZERO, QPoly, Truncation, dot, half_int, inv_qpoch, mul, series_product, twice
from qident.saalschutz import (ClassicParams, _gensum_inner, gensum_lhs, gensum_rhs, qcv_lhs, qcv_rhs,
                               qs2_lhs, qs2_rhs, sears_lhs, sears_rhs)

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


GENSUM_CHECKED = 8_806
_INNER = {}  # (N, sigma, ell) -> {(i, 2 L1, 2 L2): inner sum}, one prefix at a time, as the sweep walks


def _gensum_lhs(g, extra_exponent=0, outer_shift=0):
    """sum over i of [L1+L2+M-i over M-i-outer_shift] q^(i extra_exponent/N) times
    the i-th inner sum, q^(i(i+ell)/N) included."""
    two_l1, two_l2 = twice(g.L1, "L1"), twice(g.L2, "L2")
    if (g.N, g.sigma, g.ell) not in _INNER:
        _INNER.clear()
    inner = _INNER.setdefault((g.N, g.sigma, g.ell), {})
    pairs = []
    for i in range(0, g.M + 1):
        key = (i, two_l1, two_l2)
        if key not in inner:
            inner[key] = _gensum_inner(g.N, g.sigma, g.ell, *key)
        outer = qbin(half_int(two_l1 + two_l2, "L1+L2") + g.M - i, g.M - i - outer_shift)
        pairs.append((outer, inner[key].times_monomial(1, i * extra_exponent, g.N)))
    return dot(pairs)


def _gensum_rhs(g, b1_shift=0, exchanged=False):
    """sum over the (mu, eta)-system classes of b1(L1, mu_1) b2(L2, mu_last) times
    the class sum, b1's bottom M+ell+b1_shift, L1 and L2 exchanged if asked."""
    two_l1, two_l2 = twice(g.L1, "L1"), twice(g.L2, "L2")
    if exchanged:
        two_l1, two_l2 = two_l2, two_l1
    cd = cartan(g.N)
    v = axis_source(cd.rank, [(1, g.M + g.ell), (cd.rank, g.M)])
    pairs = []
    for key, term in class_terms(cd, v, g.ell + g.sigma * g.N, lambda key: ONE):
        mu_first, mu_last = key[:2] if key else (g.M, g.M + g.ell)
        b1 = qbin(half_int(two_l1 + g.M + mu_first, "b1 top"), g.M + g.ell + b1_shift)
        b2 = qbin(half_int(two_l2 + g.M + g.ell + mu_last, "b2 top"), g.M)
        pairs.append((mul(b1, b2), term))
    return dot(pairs)


# name -> (sides, the side left true, mismatches, mismatches where the true
# identity compares 0 with 0: there the true side's row value is 0)
GENSUM_CONTROLS = {
    "inner_exponent": (lambda g, d: (_gensum_lhs(g, extra_exponent=1), gensum_rhs(g)), "rhs", 3944, 0),
    "outer_bottom": (lambda g, d: (_gensum_lhs(g, outer_shift=1), gensum_rhs(g)), "rhs", 4844, 0),
    "right_b1_bottom": (lambda g, d: (gensum_lhs(g), _gensum_rhs(g, b1_shift=1)), "lhs", 4876, 171),
    "right_L1_L2_exchanged": (lambda g, d: (gensum_lhs(g), _gensum_rhs(g, exchanged=True)), "lhs", 4296, 1249),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("control", list(GENSUM_CONTROLS))
def test_wrong_gensum_is_caught_by_the_runner(capsys, monkeypatch, control, jobs):
    sides, true_side, mismatches, zero_zero = GENSUM_CONTROLS[control]
    monkeypatch.setitem(REGISTRY, "gensum", dataclasses.replace(REGISTRY["gensum"], sides=sides))
    code = main(["verify", "gensum", "--jobs", jobs])
    out, err = capsys.readouterr()
    lines = [json.loads(line) for line in out.splitlines()]
    summary, rows = lines[-1], lines[:-1]
    assert summary["equal"] + summary["mismatch"] == GENSUM_CHECKED
    assert summary["mismatch"] == mismatches and summary["error"] == 0
    assert code == (1 if mismatches else 0) and err == ""
    caught = [r for r in rows if r["verdict"] == "mismatch"]
    assert len(caught) == mismatches
    assert sum(r[f"{true_side}_repr"] == "0" for r in caught) == zero_zero


FORMS_CHECKED = 909


def _euler_times_q(M, L, n_lat, sigma):
    two_l = twice(L, "L")
    return ZERO if sigma else qbin(two_l + M, two_l).times_monomial(1, 1)


def _rr_inner_bottom(M, L, n_lat, sigma):
    two_l = twice(L, "L")
    return i_sum(cartan(n_lat), 0, sigma * n_lat, range(M + 1),
                 lambda i, m: qbin(two_l - i + (m[0] if m else 0), i + 1),
                 lambda i: qbin(two_l + M - i, two_l))


def _lattice_flipped(M, L, n_lat, sigma, a_n):
    """The tadpole or A_N display, its parity filter given 1 - sigma."""
    two_l = twice(L, "L")
    cd = cartan(n_lat + 1) if a_n else cartan(n_lat, "tadpole")
    v = axis_source(cd.rank, [(1, two_l)])

    def weight(m):
        if not burge._parity_ok(m[2] if m else (), n_lat, 1 - sigma, flip=a_n):
            return ZERO
        return qbin(half_int((2 if a_n else 1) * two_l + 2 * M - (m[0] if m else 0), "top"), two_l)

    pre = cd.qform(v) + (0 if a_n else cd.cinv_den * two_l * two_l)
    return system_sum(cd, v, None, weight, shift=v).times_monomial(1, pre, 4 * cd.cinv_den)


# name -> (the evaluator replaced, its wrong version, burge.forms mismatches,
# false nodes of `tree --depth 4`, false nodes of `tree --depth 3 --N 2 --sigma 1`)
FORM_CONTROLS = {
    "true": (None, None, 0, [], []),
    "euler_times_q": (burge._euler_n_form, _euler_times_q, 153, [2], [2]),
    "rr_inner_bottom": (burge._rr_n_form, _rr_inner_bottom, 182, [5], [5, 11]),
    "lattice_sigma_flipped": (burge._lattice_form, _lattice_flipped, 97, [], [7, 10]),
}


def _install_form_control(monkeypatch, control):
    """Put the control's wrong display in place of every entry sharing the evaluator."""
    real, wrong = FORM_CONTROLS[control][:2]
    for name, form in list(burge.CLOSED_FORMS.items()):
        if real is not None and form.display is real:
            monkeypatch.setitem(burge.CLOSED_FORMS, name, form._replace(display=wrong))
        elif real is not None and getattr(form.display, "func", None) is real:  # a partial
            monkeypatch.setitem(burge.CLOSED_FORMS, name, form._replace(
                display=functools.partial(wrong, **form.display.keywords)))


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("control", list(FORM_CONTROLS))
def test_wrong_closed_form_is_caught_by_the_runner(capsys, monkeypatch, control, jobs):
    mismatches = FORM_CONTROLS[control][2]
    _install_form_control(monkeypatch, control)
    code = main(["verify", "burge.forms", "--jobs", jobs])
    out, err = capsys.readouterr()
    lines = [json.loads(line) for line in out.splitlines()]
    summary, rows = lines[-1], lines[:-1]
    assert summary["equal"] + summary["mismatch"] == summary["total"] == FORMS_CHECKED
    assert summary["mismatch"] == mismatches and summary["error"] == 0
    assert code == (1 if mismatches else 0) and err == ""
    caught = [r for r in rows if r["verdict"] == "mismatch"]
    assert len(caught) == mismatches
    # the left side is the node's polynomial, which the control leaves true
    assert sum(r["lhs_repr"] == "0" for r in caught) == 0


@pytest.mark.parametrize("control", list(FORM_CONTROLS))
def test_wrong_closed_form_makes_its_tree_nodes_false(capsys, monkeypatch, control):
    *_, deep, level_two = FORM_CONTROLS[control]
    _install_form_control(monkeypatch, control)
    for argv, false_nodes in ((["tree", "--depth", "4"], deep),
                              (["tree", "--depth", "3", "--N", "2", "--sigma", "1"], level_two)):
        code = main(argv)
        out, err = capsys.readouterr()
        nodes = json.loads(out)["nodes"]
        assert [i for i, nd in enumerate(nodes) if nd["verified"] is False] == false_nodes
        assert code == (1 if false_nodes else 0)
        # one witness line per false node, each from its closed-form check
        assert [line.split()[:2] + line.split()[6:7] for line in err.splitlines()] == [
            ["node", str(i), "burge.forms"] for i in false_nodes]


def _qcv_lhs(p, exponent):
    """sum over i of q^exponent(i, ell) [L1 over i+ell] [L2 over i]."""
    live = range(max(0, -p.ell), min(p.L2, p.L1 - p.ell) + 1)
    terms = (mul(qbin(p.L1, i + p.ell), qbin(p.L2, i)).times_monomial(1, exponent(i, p.ell)) for i in live)
    return sum(terms, ZERO)


def _sears(p, i_range, entries, extra_exponent=0):
    """sum over i of q^(i(i-a+e+g+extra_exponent)) times the modified binomials of entries(i)."""
    a, e, g = p["a"], p["e"], p["g"]
    total = ZERO
    for i in i_range:
        term = ONE
        for top, bottom in entries(i):
            term = mul(term, qbin_mod_tb(top, bottom))
        total = total + term.times_monomial(1, i * (i - a + e + g + extra_exponent))
    return total


def _sears_lhs(p, extra_exponent=0, skip=0):
    """The left sum, its exponent moved by i extra_exponent, its first `skip` terms dropped."""
    a, b, c, d, e, f, g = p.values()
    return _sears(p, range(max(-e, -g) + skip, c + 1) if a >= 0 else (),
                  lambda i: ((i + a, a), (b - i, c - i), (d, i + e), (f, i + g)), extra_exponent)


def _sears_rhs_top(p):
    """The right sum with the top b-d+e of its second binomial one higher."""
    a, b, c, d, e, f, g = p.values()
    return _sears(p, range(-g, min(a - g, c) + 1) if c + e >= 0 else (),
                  lambda i: ((a - g, a - g - i), (b - d + e + 1, c - i), (c + d - i, c + e), (i + f, i + g)))


def _tnew(q, exponent=False, exchanged=False, drop_last=False):
    """sum over i of q^(i(i+ell)/N) [(L+ell+m1)/2 over i+ell] [(L-ell+m1)/2 over i] times the
    lattice sum, one more q^(i/N), the two tops exchanged or the last i dropped if asked."""
    N, L, ell = q.N, q.L, twice(q.a, "a")

    def weight(i, m):
        tops = [half_int(L + ell + (m[0] if m else 0), "top"), half_int(L - ell + (m[0] if m else 0), "top")]
        first, second = tops[::-1] if exchanged else tops
        return mul(qbin(first, i + ell), qbin(second, i))

    outer = (lambda i: QPoly.monomial(1, Fraction(i, N))) if exponent else None
    return i_sum(cartan(N), ell, N * L, range(max(0, (N * L - ell) // 2) + 1 - drop_last), weight, outer)


def _tnew_sides(**wrong):
    return lambda q, d: (_tnew(q, **wrong), multinom.t_multinomial(q))


# identity -> (checked points, {name: (sides, mismatches, mismatches where the
# true identity compares 0 with 0)})
MORE_CONTROLS = {
    "qcv": (1261, {
        "left_exponent": (lambda c, d: (_qcv_lhs(c, lambda i, ell: i * (i + ell + 1)), qcv_rhs(c)), 165, 0),
        "right_bottom": (lambda c, d: (qcv_lhs(c), qbin(c.L1 + c.L2, c.L1 - c.ell + 1)), 253, 55),
        "right_L1_L2_exchanged": (lambda c, d: (qcv_lhs(c), qbin(c.L1 + c.L2, c.L2 - c.ell)), 290, 140),
    }),
    "sears": (1200, {
        "left_exponent": (lambda p, d: (_sears_lhs(p, extra_exponent=1), sears_rhs(*p.values())), 205, 65),
        "right_top": (lambda p, d: (sears_lhs(*p.values()), _sears_rhs_top(p)), 145, 9),
        "left_first_term_dropped": (lambda p, d: (_sears_lhs(p, skip=1), sears_rhs(*p.values())), 158, 43),
    }),
    "multinom.tnew": (351, {
        "exponent": (_tnew_sides(exponent=True), 324, 0),
        "tops_exchanged": (_tnew_sides(exchanged=True), 328, 0),
        "last_term_dropped": (_tnew_sides(drop_last=True), 351, 0),
    }),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("identity, control", [(ident, name) for ident, (_, controls) in MORE_CONTROLS.items()
                                                for name in controls])
def test_wrong_qcv_sears_and_tnew_are_caught_by_the_runner(capsys, monkeypatch, identity, control, jobs):
    checked, controls = MORE_CONTROLS[identity]
    sides, mismatches, zero_zero = controls[control]
    fam = REGISTRY[identity]
    monkeypatch.setitem(REGISTRY, identity, dataclasses.replace(fam, sides=sides))
    code = main(["verify", identity, "--jobs", jobs])
    out, err = capsys.readouterr()
    lines = [json.loads(line) for line in out.splitlines()]
    summary, rows = lines[-1], lines[:-1]
    assert summary["equal"] + summary["mismatch"] == checked
    assert summary["mismatch"] == mismatches and summary["error"] == 0
    assert code == 1 and err == ""
    caught = [r["params"] for r in rows if r["verdict"] == "mismatch"]
    assert len(caught) == mismatches
    points = [fam.point(*p.values()) if fam.point else p for p in caught]
    assert sum(all(side.is_zero() for side in fam.sides(p, None)[:2]) for p in points) == zero_zero


def _ising_odd(d):
    """sum over odd n of q^(n^2/2) / (q)_n, to degree d."""
    t = Truncation(d)
    return sum((inv_qpoch(1, n, t).times_monomial(1, n * n, 2) for n in range(1, d + 2, 2) if n * n <= 2 * d),
               ZERO).truncate(t)


def _slater_shifted(d):
    """sum over n of q^(n^2+n) (-q; q^2)_n / (q^2; q^2)_n, to degree d."""
    t = Truncation(d)
    terms = (series_product([f for k in range(1, n + 1) for f in ((2 * k - 1, 1, 1), (2 * k, -1, -1))], t)
             .times_monomial(1, n * n + n) for n in range(d + 1) if n * n + n <= d)
    return sum(terms, ZERO).truncate(t)


def _wrong_sum(monkeypatch, family, wrong):
    real = series.sum_side
    monkeypatch.setattr(series, "sum_side",
                        lambda which, trunc: wrong(trunc.degree_cap) if which == family else real(which, trunc))


def _partitions_from_parts_2(limit):
    ways = [1] + [0] * limit
    for part in range(2, limit + 1):
        for n in range(part, limit + 1):
            ways[n] += ways[n - part]
    return ways


# name -> (identity, installs the wrong version, the caught points' params)
SERIES_CONTROLS = {
    "rr_second_product": ("series.products", lambda mp: mp.setitem(
        series._PRODUCTS, "rr", [(5, 2, -1, -1), (5, 3, -1, -1)]), [{"family": "rr"}]),
    "slater_exponent": ("series.products", lambda mp: _wrong_sum(mp, "slater", _slater_shifted),
                        [{"family": "slater"}]),
    "ising_odd_terms": ("series.products", lambda mp: _wrong_sum(mp, "ising", _ising_odd),
                        [{"family": "ising"}]),
    "parts_from_2": ("qpoly.partitions", lambda mp: mp.setattr(cli, "_partition_counts", _partitions_from_parts_2),
                     [{"limit": 50}]),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("control", list(SERIES_CONTROLS))
def test_wrong_products_and_partitions_are_caught_by_the_runner(capsys, monkeypatch, control, jobs):
    identity, install, caught = SERIES_CONTROLS[control]
    install(monkeypatch)
    code = main(["verify", identity, "--jobs", jobs])
    out, err = capsys.readouterr()
    lines = [json.loads(line) for line in out.splitlines()]
    summary, rows = lines[-1], lines[:-1]
    assert summary["equal"] + summary["mismatch"] == {"series.products": 3, "qpoly.partitions": 1}[identity]
    assert summary["mismatch"] == len(caught) and summary["error"] == 0
    assert code == 1 and err == ""
    wrong = [r for r in rows if r["verdict"] == "mismatch"]
    assert [r["params"] for r in wrong] == caught
    assert not any(r["lhs_repr"] == "0" or r["rhs_repr"] == "0" for r in wrong)
