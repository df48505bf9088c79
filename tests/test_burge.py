"""Transform-tree polynomials: direct sums, transforms, closed forms.

The oracle here is a wide-window transcription of the bilateral j-sum:
it scans far more j than can contribute, so it cannot miss support, and
it reuses only qbin (itself oracle-tested elsewhere).  Everything else
is cross-checked three ways where possible: direct evaluation, closed
form, and transform route.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qident.burge import (
    CLOSED_FORMS,
    TREE_DEPTH_CAP,
    BurgeParams,
    _xn_term,
    build_tree,
    burge_xn,
    classic_bt2_safe,
    classic_bt_safe,
    closed_form,
    closed_form_name,
    edge_applies,
    edge_sides,
    sufficiency,
    transform_burgetrafo_n,
    transform_trafo,
)
from qident import burge
from qident.cli import REGISTRY, TREE_GRID_CAP, _points_for, main, tree_verdicts
from qident.errors import InvalidParams, UnknownClosedForm
from qident.lattice import axis_source, cartan, enumerate_admissible
from qident.qbinom import qbin
from qident.qpoly import ZERO, QPoly, mul, render


def oracle_x(p, pp, r, s, m1, l1, m2, l2):
    # wide scan: any nonzero term needs m1+p*j >= 0 and m2-p*j >= 0 (or the
    # r-shifted versions), so |j| <= span is more than enough
    span = abs(m1) + abs(m2) + abs(r) + 2
    total = ZERO
    for j in range(-span, span + 1):
        t = mul(
            qbin(m1 + l1 - (pp - p) * j, m1 + p * j),
            qbin(m2 + l2 + (pp - p) * j, m2 - p * j),
        )
        total = total + t.times_monomial(1, j * (p * pp * j + pp * (m1 - m2 + r) - p * s))
        t = mul(
            qbin(m1 + l1 - (pp - p) * j + r - s, m1 + p * j + r),
            qbin(m2 + l2 + (pp - p) * j - r + s, m2 - p * j - r),
        )
        total = total - t.times_monomial(1, (p * j + m1 - m2 + r) * (pp * j + s))
    return total


def classic_x(p, pp, r, s, m1, l1, m2, l2):
    """Burge's polynomial: burge_xn at N = 1, with sigma the parity of m1 - m2."""
    return burge_xn(BurgeParams(p, pp, r, s, m1, l1, m2, l2, sigma=(m1 - m2) % 2))


LABELS = [(1, 2, 0, 1), (1, 3, 0, 1), (2, 3, 1, 1), (3, 4, 1, 1), (2, 5, 1, 2)]


def test_x_matches_wide_window_oracle_on_grid():
    for p, pp, r, s in LABELS:
        for m1, l1, m2, l2 in itertools.product(range(0, 4), repeat=4):
            got = classic_x(p, pp, r, s, m1, l1, m2, l2)
            want = oracle_x(p, pp, r, s, m1, l1, m2, l2)
            assert got == want
            assert render(got) == render(want)


@settings(max_examples=120, deadline=None)
@given(
    p=st.integers(1, 4),
    dp=st.integers(0, 4),
    r=st.integers(-2, 4),
    s=st.integers(-2, 4),
    bounds=st.tuples(*(st.integers(0, 5) for _ in range(4))),
)
def test_x_matches_oracle_random(p, dp, r, s, bounds):
    pp = p + dp
    m1, l1, m2, l2 = bounds
    assert classic_x(p, pp, r, s, m1, l1, m2, l2) == oracle_x(p, pp, r, s, m1, l1, m2, l2)


def test_x_rejects_bad_labels():
    with pytest.raises(InvalidParams):
        classic_x(0, 2, 0, 1, 1, 1, 1, 1)


def test_initial_form_is_kronecker_delta():
    for m in range(0, 6):
        assert classic_x(1, 2, 0, 1, m, 0, m, 0) == QPoly({0: 1})
        for l in range(1, 5):
            assert classic_x(1, 2, 0, 1, m, l, m, l).is_zero()


@pytest.mark.parametrize(
    "labels,name",
    [
        ((1, 3, 0, 1), "nn"),
        ((2, 3, 1, 1), "euler"),
        ((3, 4, 1, 1), "ising"),
        ((2, 5, 1, 2), "rr"),
    ],
)
def test_classic_closed_forms(labels, name):
    p, pp, r, s = labels
    for m in range(0, 7):
        for l in range(0, 7):
            direct = classic_x(p, pp, r, s, m, l, m, l)
            assert direct == closed_form(name, m, l), (name, m, l)


def test_closed_form_unknown_name():
    with pytest.raises(UnknownClosedForm):
        closed_form("no-such-form", 1, 1)


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_every_display_is_its_node_at_negative_bounds(name):
    # the node vanishes once M or L is negative, and so must its display
    form = CLOSED_FORMS[name]
    for n in (form.level,) if form.level else (1, 2, 3):
        for sigma, m0, l0 in _sigma_grid(n, 3):
            for m, l in ((m0 - 3, l0), (m0, l0 - 3)):
                direct = burge_xn(BurgeParams(*form.labels(n), m, l, m, l, N=n, sigma=sigma))
                assert closed_form(name, m, l, n, sigma) == direct, (n, sigma, m, l)


def test_symmetry_relation():
    # X_{r,s}^{(p,p')}(M1,L1,M2,L2) = X_{s-L12,r+M12}^{(p',p)}(L1,M1,L2,M2); the
    # image has p' < p, which BurgeParams rejects, so the oracle evaluates it
    for p, pp, r, s in LABELS:
        for m1, l1, m2, l2 in itertools.product(range(0, 4), repeat=4):
            image = oracle_x(pp, p, s - (l1 - l2), r + (m1 - m2), l1, m1, l2, m2)
            assert classic_x(p, pp, r, s, m1, l1, m2, l2) == image


def test_xn_term_raises_on_a_fractional_top():
    # a valid point never gets here: the congruence restriction keeps every
    # top integral, so a fractional one is an error, not a dropped term
    with pytest.raises(InvalidParams, match="binomial top"):
        _xn_term(cartan(1), 0, 0, 1, 0, 1, 2, 1, 0, 0, 0, 0)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 4),
    p=st.integers(1, 3),
    k=st.integers(0, 2),
    r=st.integers(-2, 3),
    t=st.integers(-1, 1),
    sigma=st.integers(0, 1),
    bounds=st.tuples(*(st.integers(0, 4) for _ in range(4))),
)
def test_xn_valid_points_never_meet_a_fractional_top(n, p, k, r, t, sigma, bounds):
    m1, k1, m2, k2 = bounds
    shift = Fraction((m1 - m2 + sigma) % 2, 2)
    bp = BurgeParams(p, p + k * n, r, r + t * n, m1, k1 + shift, m2, k2 + shift, N=n, sigma=sigma)
    assume(bp.violation() is None)
    burge_xn(bp)  # a fractional binomial top would raise InvalidParams


def m_window_xn(bp):
    """burge_xn summed over every j whose binomial bottoms are nonnegative,
    without the windows in L1 and L2."""
    p, pp, r, s, n, m1, m2, m12 = bp.p, bp.pprime, bp.r, bp.s, bp.N, bp.M1, bp.M2, bp.M12
    two_l1, two_l2, cd = int(2 * bp.L1), int(2 * bp.L2), cartan(n)
    total = ZERO
    for j in range(-(m1 // p), m2 // p + 1):
        inner = _xn_term(cd, m1, m2, two_l1, two_l2, p, pp, n, bp.sigma, j, 0, 0)
        total = total + inner.times_monomial(1, j * (p * pp * j + pp * (m12 + r) - p * s), n)
    for j in range(-((m1 + r) // p), (m2 - r) // p + 1):
        inner = _xn_term(cd, m1, m2, two_l1, two_l2, p, pp, n, bp.sigma, j, r, r - s)
        total = total - inner.times_monomial(1, (p * j + m12 + r) * (pp * j + s), n)
    return total


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5),
    p=st.integers(1, 3),
    k=st.integers(0, 2),
    r=st.integers(-3, 3),
    t=st.integers(-1, 1),
    sigma=st.integers(0, 1),
    ms=st.tuples(st.integers(-1, 4), st.integers(-1, 4)),
    ks=st.tuples(st.integers(-4, 3), st.integers(-4, 3)),
)
def test_xn_windows_keep_every_contributing_j(n, p, k, r, t, sigma, ms, ks):
    # the L-windows follow from top >= bottom at the largest mu_1 and mu_last;
    # negative L and both j-sums, at every level the suite and the pins reach
    m1, m2 = ms
    if n % 2:
        sigma = (m1 - m2) % 2
    shift = Fraction((m1 - m2 + sigma) % 2, 2)
    bp = BurgeParams(p, p + k * n, r, r + t * n, m1, ks[0] + shift, m2, ks[1] + shift,
                     N=n, sigma=sigma)
    assume(bp.violation() is None)
    assert burge_xn(bp) == m_window_xn(bp)


def _child(p, pp, r, s):
    return lambda m1, l1, m2, l2: classic_x(p, pp, r, s, m1, l1, m2, l2)


def _classic(transform, m1, l1, m2, l2, child):
    """Burge's classic transform: the level-N one at N = 1, sigma = M12 mod 2."""
    return transform(1, (m1 - m2) % 2, m1, l1, m2, l2, child)


def test_bt_equals_direct_wherever_safe():
    mismatches_outside = 0
    for p, pp, r, s in [(1, 2, 0, 1), (2, 3, 1, 1), (1, 3, 0, 1)]:
        for m1, l1, m2, l2 in itertools.product(range(0, 4), repeat=4):
            lhs = classic_x(p, p + pp, r, r + s, m1, l1, m2, l2)
            rhs = _classic(transform_burgetrafo_n, m1, l1, m2, l2, _child(p, pp, r, s))
            if classic_bt_safe(p, pp, r, s, m1, l1, m2, l2):
                assert lhs == rhs, (p, pp, r, s, m1, l1, m2, l2)
            elif lhs != rhs:
                mismatches_outside += 1
    # the scan is not vacuous: outside it the identity really can fail
    assert mismatches_outside > 0


def test_bt2_equals_direct_wherever_safe():
    mismatches_outside = 0
    for p, pp, r, s in [(1, 2, 0, 1), (2, 3, 1, 1), (1, 3, 0, 1)]:
        for m1, l1, m2, l2 in itertools.product(range(0, 4), repeat=4):
            m12, l12 = m1 - m2, l1 - l2
            lhs = classic_x(pp, p + pp, s - m12, r + s + l12, m1, l1, m2, l2)
            rhs = _classic(transform_trafo, m1, l1, m2, l2, _child(p, pp, r, s))
            if classic_bt2_safe(p, pp, r, s, m1, l1, m2, l2):
                assert lhs == rhs, (p, pp, r, s, m1, l1, m2, l2)
            elif lhs != rhs:
                mismatches_outside += 1
    assert mismatches_outside > 0


def test_symmetric_transforms_always_hold():
    # no safety side conditions at m1 == m2, l1 == l2
    for p, pp, r, s in LABELS:
        for m in range(0, 5):
            for l in range(0, 5):
                assert classic_bt_safe(p, pp, r, s, m, l, m, l)
                assert classic_bt2_safe(p, pp, r, s, m, l, m, l)
                lhs = classic_x(p, p + pp, r, r + s, m, l, m, l)
                assert lhs == transform_burgetrafo_n(1, 0, m, l, m, l, _child(p, pp, r, s))
                lhs = classic_x(pp, p + pp, s, r + s, m, l, m, l)
                assert lhs == transform_trafo(1, 0, m, l, m, l, _child(p, pp, r, s))


def _sigma_grid(n, grid):
    for sigma in (0, 1) if n % 2 == 0 else (0,):
        for m in range(0, grid + 1):
            for k in range(0, grid + 1):
                yield sigma, m, k + Fraction(sigma, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_level_n_displays_three_ways(n):
    # name -> (labels at level n, transform, seed display, Burge's name at n = 1)
    routes = {
        "tadpole": ((1, 2 * n + 1, 0, n), transform_burgetrafo_n, "initial", "nn"),
        "euler_n": ((2, n + 2, 1, 1), transform_trafo, "initial", "euler"),
        "a_n": ((3, n + 3, 1, 1), transform_trafo, "nn", "ising"),
        "rr_n": ((2, 3 * n + 2, 1, n + 1), transform_burgetrafo_n, "euler", "rr"),
    }
    for name, (labels, tf, seed, classic) in routes.items():
        p, pp, r, s = labels
        # at n = 1 the node is Burge's, and the table names it first
        node_name = classic if n == 1 else name
        assert closed_form_name(p, pp, r, s, n) == node_name
        for sigma, m, l in _sigma_grid(n, 3):
            direct = burge_xn(BurgeParams(p, pp, r, s, m, l, m, l, N=n, sigma=sigma))
            form = closed_form(name, m, l, n, sigma)
            assert closed_form(node_name, m, l, n, sigma) == form
            # at symmetric bounds the seed sees equal bound pairs
            route = tf(n, sigma, m, l, m, l, lambda m1, l1, m2, l2: closed_form(seed, m2, l2))
            assert direct == form == route, (name, n, sigma, m, l)


def test_slater_display_at_level_two():
    for sigma, m, l in _sigma_grid(2, 3):
        a = closed_form("slater", m, l, 2, sigma)
        b = closed_form("rr_n", m, l, 2, sigma)
        c = burge_xn(BurgeParams(2, 8, 1, 3, m, l, m, l, N=2, sigma=sigma))
        assert a == b == c
    with pytest.raises(InvalidParams):
        closed_form("slater", 1, 1, 3, 0)


def test_tadpole_small_value():
    assert render(closed_form("tadpole", 1, 1, 2, 0)) == "q"


def test_unsymmetric_level_transforms_under_sufficiency():
    rng = random.Random(406)
    checked = 0
    for _ in range(400):
        n = rng.choice([2, 3])
        sigma = rng.choice([0, 1])
        m1, m2 = rng.randint(0, 4), rng.randint(0, 4)
        if (m1 - m2 + sigma * n) % 2:
            continue
        sh = Fraction((m1 - m2 + sigma) % 2, 2)
        l1 = rng.randint(0, 3) + sh
        l2 = rng.randint(0, 3) + sh
        p, pp, r, s = rng.choice([(1, 2, 0, 1), (2, 3, 1, 1), (1, 3, 0, 1)])
        probe = BurgeParams(p, pp, r, s, m1, l1, m2, l2, N=n, sigma=sigma)
        if sufficiency(probe, "suf"):
            lhs = burge_xn(
                BurgeParams(p, p + n * pp, r, r + n * s, m1, l1, m2, l2, N=n, sigma=sigma)
            )
            rhs = transform_burgetrafo_n(n, sigma, m1, l1, m2, l2, _child(p, pp, r, s))
            assert lhs == rhs, ("suf", n, sigma, m1, l1, m2, l2, p, pp, r, s)
            # the hand-built child is the oracle for edge_sides's child rule
            assert edge_sides((p, pp, r, s), "traf1", m1, l1, m2, l2, n, sigma) == (lhs, rhs)
            checked += 1
        if sufficiency(probe, "suf2"):
            l12 = int(l1 - l2)
            m12 = m1 - m2
            lhs = burge_xn(
                BurgeParams(
                    pp, n * p + pp, s - m12, n * (r + l12 + m12) + s - m12,
                    m1, l1, m2, l2, N=n, sigma=sigma,
                )
            )
            rhs = transform_trafo(n, sigma, m1, l1, m2, l2, _child(p, pp, r, s))
            assert lhs == rhs, ("suf2", n, sigma, m1, l1, m2, l2, p, pp, r, s)
            assert edge_sides((p, pp, r, s), "traf2", m1, l1, m2, l2, n, sigma) == (lhs, rhs)
            checked += 1
    assert checked > 100



GRID_PARENTS = [(1, 2, 0, 1), (2, 3, 1, 1), (1, 3, 0, 1)]  # the edge families' parents


def test_level_edges_route_asymmetric_bounds():
    # a level tag routes its transform at (M1, L1, M2, L2), and the second
    # rule's child moves with M12 and L12; every valid point of the box where
    # edge_applies holds agrees, the asymmetric ones (suf, suf2) among them
    applied = asymmetric = 0
    for n, sigma in itertools.product((1, 2, 3), (0, 1)):
        for m1, m2 in itertools.product(range(4), repeat=2):
            if (m1 - m2 + sigma * n) % 2:
                continue
            shift = Fraction((m1 - m2 + sigma) % 2, 2)
            for k1, k2 in itertools.product(range(3), repeat=2):
                bounds = (m1, k1 + shift, m2, k2 + shift)
                for labels, tag in itertools.product(GRID_PARENTS, ("traf1", "traf2")):
                    if edge_applies(labels, tag, *bounds, n, sigma):
                        direct, route = edge_sides(labels, tag, *bounds, n, sigma)
                        assert direct == route, (labels, tag, bounds, n, sigma)
                        applied += 1
                        asymmetric += bounds[:2] != bounds[2:]
    assert (applied, asymmetric) == (1391, 1103)


def test_classic_edges_are_the_level_edges_at_n_1():
    for labels in GRID_PARENTS:
        for bounds in itertools.product(range(3), repeat=4):
            sigma = (bounds[0] - bounds[2]) % 2
            for classic, level in (("bt", "traf1"), ("bt2", "traf2")):
                assert edge_sides(labels, classic, *bounds) == edge_sides(labels, level, *bounds, 1, sigma)


# --- the parent memo: one label set's level-1 values at a time ------------------------

def _grid_edges(identity_id):
    """(labels, tag, bounds, N, sigma) at each applicable point of a default grid."""
    fam = REGISTRY[identity_id]
    tag = identity_id.split(".")[1]
    for values in _points_for(fam, {})[1]:
        p = dict(zip(fam.names, values))
        if fam.precondition(fam.point(*values)):
            labels = (p["p"], p["pprime"], p["r"], p["s"])
            if tag in ("bt", "bt2"):
                yield labels, tag, (p["M1"], p["L1"], p["M2"], p["L2"]), 1, 0
            else:
                yield labels, tag, (p["M"], p["L"], p["M"], p["L"]), p["N"], p["sigma"]


@pytest.mark.parametrize("identity_id, points, values", [("burge.bt2", 483, 555), ("burge.traf2", 216, 90)])
def test_parent_memo_equals_a_fresh_evaluation(monkeypatch, identity_id, points, values):
    # every value the memo gives equals a fresh evaluation, and each is made
    # once: a point evaluates its child, and its parent values only where new
    monkeypatch.setattr(burge, "_PARENT", {})
    real, calls, checked = burge.burge_xn, [], set()
    monkeypatch.setattr(burge, "burge_xn", lambda bp: calls.append(bp) or real(bp))
    count = 0
    for labels, tag, bounds, n, sigma in _grid_edges(identity_id):
        edge_sides(labels, tag, *bounds, n, sigma)
        count += 1
        assert burge._PARENT.keys() == {labels}
        for key, value in burge._PARENT[labels].items():
            if (labels, key) not in checked:
                checked.add((labels, key))
                assert value == real(BurgeParams(*labels, *key, sigma=(key[0] - key[2]) % 2)), (labels, key)
    assert (count, len(checked)) == (points, values)
    assert len(calls) == points + values


def test_parent_memo_never_stores_an_evaluation_that_raised(monkeypatch):
    monkeypatch.setattr(burge, "_PARENT", {})
    labels, bounds, failing = (1, 2, 0, 1), (2, 1, 1, 2), [True]
    real = burge.burge_xn

    def planted(bp):
        if failing and (bp.p, bp.pprime, bp.r, bp.s) == labels:
            raise InvalidParams("planted")
        return real(bp)

    monkeypatch.setattr(burge, "burge_xn", planted)
    with pytest.raises(InvalidParams, match="planted"):
        edge_sides(labels, "bt", *bounds)
    assert burge._PARENT == {labels: {}}
    failing.clear()
    direct, route = edge_sides(labels, "bt", *bounds)
    assert direct == route and burge._PARENT[labels]
    assert all(v == real(BurgeParams(*labels, *k, sigma=(k[0] - k[2]) % 2)) for k, v in burge._PARENT[labels].items())


def test_parent_memo_holds_one_label_set_at_a_time(monkeypatch):
    monkeypatch.setattr(burge, "_PARENT", {})
    calls = []
    real = burge.burge_xn
    monkeypatch.setattr(burge, "burge_xn", lambda bp: calls.append(bp) or real(bp))
    first, second, bounds = (1, 2, 0, 1), (2, 3, 1, 1), (2, 2, 2, 2)
    edge_sides(first, "bt", *bounds)
    held, made = dict(burge._PARENT[first]), len(calls)
    assert burge._PARENT.keys() == {first} and held
    edge_sides(first, "bt2", *bounds)  # the same labels: the parent values it shares are read
    assert burge._PARENT.keys() == {first} and held.items() <= burge._PARENT[first].items()
    edge_sides(second, "bt", *bounds)
    assert burge._PARENT.keys() == {second}
    calls.clear()
    edge_sides(first, "bt", *bounds)  # first's values were dropped: they are evaluated again
    assert burge._PARENT.keys() == {first} and burge._PARENT[first] == held
    assert len(calls) == made


def test_edge_applies_checks_labels_before_any_scan():
    # p = 0 would divide by zero in the classic safety scan, and p' < p has no
    # parent polynomial: labels invalid at level 1 are out of every edge's domain
    for labels in ((0, 2, 0, 1), (1, 0, 0, 1), (2, 1, 0, 1)):
        for tag in ("bt", "bt2"):
            assert not edge_applies(labels, tag, 0, 0, 0, 0)
        for tag in ("traf1", "traf2"):
            assert not edge_applies(labels, tag, 0, 0, 0, 0, 2, 0)
    # a classic point needs integral bounds >= 0
    assert edge_applies((1, 2, 0, 1), "bt", 1, 1, 1, 1)
    assert not edge_applies((1, 2, 0, 1), "bt", 1, -1, 1, 1)
    assert not edge_applies((1, 2, 0, 1), "bt2", 1, Fraction(1, 2), 1, Fraction(1, 2))
    # a level point must be valid: here L1 - L2 is not an integer
    assert not edge_applies((1, 2, 0, 1), "traf2", 1, Fraction(1, 2), 1, 1, 2, 1)


def test_sufficiency_shapes():
    # the guarantee needs p' > p
    bp = BurgeParams(3, 2, 1, 1, 2, 2, 2, 2, N=2)
    assert not sufficiency(bp, "suf")
    assert not sufficiency(bp, "sufsym")
    # seed labels pass the symmetric predicate for every cap
    for n in (1, 2, 3, 4):
        for l in range(0, 12):
            bp = BurgeParams(1, 2, 0, 1, 0, l, 0, l, N=n)
            assert sufficiency(bp, "sufsym")
    # a large r pushes the left floor past the right one at small caps
    assert not sufficiency(BurgeParams(1, 2, 3, 3, 0, 0, 0, 0, N=2), "sufsym")
    with pytest.raises(InvalidParams):
        sufficiency(BurgeParams(1, 2, 0, 1, 1, 2, 0, 2, N=2), "sufsym")
    with pytest.raises(InvalidParams):
        sufficiency(BurgeParams(1, 2, 0, 1, 0, 2, 0, 2, N=2), "no-such-predicate")


def test_validate_catches_bad_level_params():
    with pytest.raises(InvalidParams):
        BurgeParams(1, 2, 0, 1, 1, 1, 0, 1, N=2).validate()  # M12 + sigma*N odd
    with pytest.raises(InvalidParams):
        BurgeParams(1, 4, 0, 1, 0, 1, 0, 1, N=2).validate()  # (r-s)/N not integral
    with pytest.raises(InvalidParams):
        BurgeParams(2, 1, 0, 1, 0, 1, 0, 1).validate()  # p' < p
    with pytest.raises(InvalidParams):
        BurgeParams(1, 3, 0, 2, 0, Fraction(1, 2), 0, 1, N=2).validate()  # L1 shape
    # a valid half-integer point
    BurgeParams(1, 5, 0, 2, 0, Fraction(1, 2), 0, Fraction(3, 2), N=2, sigma=1).validate()


def test_parity_filter_is_load_bearing():
    # the A-type system admits odd-m integral solutions that the display
    # excludes; the three-way agreement tests above pin the filtered sum down
    cd = cartan(4, "a")
    v = axis_source(cd.rank, [(1, 4)])
    sols = list(enumerate_admissible(cd, v, None))
    assert any(any(x % 2 for x in s.m_vec) for s in sols)
    assert any(all(x % 2 == 0 for x in s.m_vec) for s in sols)
    # the odd-N tadpole system, by contrast, forces even m on its own
    cd = cartan(3, "tadpole")
    for two_l in range(0, 8, 2):
        v = axis_source(cd.rank, [(1, two_l)])
        for sol in enumerate_admissible(cd, v, None):
            assert all(x % 2 == 0 for x in sol.m_vec)


def test_tree_depth3_labels():
    nodes = build_tree(3)
    assert len(nodes) == 15
    labels = {(nd.p, nd.pprime, nd.r, nd.s) for nd in nodes}
    for expected in [(1, 2, 0, 1), (1, 3, 0, 1), (2, 3, 1, 1), (1, 4, 0, 1),
                     (3, 4, 1, 1), (2, 5, 1, 2), (3, 5, 1, 2), (1, 5, 0, 1),
                     (4, 5, 1, 1)]:
        assert expected in labels
    by_depth = {}
    for nd in nodes:
        by_depth.setdefault(nd.depth, []).append(nd)
    assert [len(by_depth[d]) for d in range(4)] == [1, 2, 4, 8]
    for nd in nodes:
        if nd.parent_index is None:
            assert nd.depth == 0 and nd.transform_tag is None
        else:
            parent = nodes[nd.parent_index]
            assert parent.depth == nd.depth - 1
            if nd.transform_tag == "bt":
                assert (nd.p, nd.pprime) == (parent.p, parent.p + parent.pprime)
                assert (nd.r, nd.s) == (parent.r, parent.r + parent.s)
            else:
                assert nd.transform_tag == "bt2"
                assert (nd.p, nd.pprime) == (parent.pprime, parent.p + parent.pprime)
                assert (nd.r, nd.s) == (parent.s, parent.r + parent.s)
    recognized = {nd.closed_form_name for nd in nodes} - {None}
    assert recognized == {"initial", "nn", "euler", "ising", "rr"}
    verdicts = [verdict for verdict, _, _ in tree_verdicts(nodes, 2)]
    assert all(v for nd, v in zip(nodes, verdicts) if nd.closed_form_name)


def test_tree_level_n_leaves():
    nodes = build_tree(2, n_lat=2, sigma=0)
    # backbone of depth 1 (3 nodes) plus two leaves each
    assert len(nodes) == 9
    leaves = [nd for nd in nodes if nd.N == 2]
    assert len(leaves) == 6
    assert {nd.transform_tag for nd in leaves} == {"traf1", "traf2"}
    forms = {nd.closed_form_name for nd in leaves} - {None}
    assert forms == {"tadpole", "euler_n", "a_n", "rr_n"}
    verdicts = [verdict for verdict, _, _ in tree_verdicts(nodes, 2)]
    assert all(v for nd, v in zip(nodes, verdicts) if nd.N == 2 and nd.closed_form_name)
    for nd in leaves:
        parent = nodes[nd.parent_index]
        if nd.transform_tag == "traf1":
            assert (nd.p, nd.pprime) == (parent.p, parent.p + 2 * parent.pprime)
            assert (nd.r, nd.s) == (parent.r, parent.r + 2 * parent.s)
        else:
            assert (nd.p, nd.pprime) == (parent.pprime, 2 * parent.p + parent.pprime)
            assert (nd.r, nd.s) == (parent.s, 2 * parent.r + parent.s)


def test_tree_json_export_schema(tmp_path):
    # the node rows of `qident tree` are the one JSON form of a tree
    nodes = build_tree(2, n_lat=2)
    out = tmp_path / "tree.json"
    assert main(["tree", "--depth", "2", "--N", "2", "--out", str(out)]) == 0
    back = json.loads(out.read_text())["nodes"]
    assert len(back) == len(nodes)
    for entry, nd, (verdict, _, _) in zip(back, nodes, tree_verdicts(nodes, 2)):
        assert entry["labels"] + [entry["N"], entry["sigma"]] == [
            nd.p, nd.pprime, nd.r, nd.s, nd.N, nd.sigma]
        assert entry["parent_index"] == nd.parent_index
        assert entry["transform_tag"] == nd.transform_tag
        assert entry["verified"] == verdict


def test_tree_rejects_bad_depth_and_sigma():
    # the tree doubles per level, so the cap holds for every caller
    for depth in (-1, TREE_DEPTH_CAP + 1, 14):
        with pytest.raises(InvalidParams, match=f"depth must lie in 0..{TREE_DEPTH_CAP}"):
            build_tree(depth)
    with pytest.raises(InvalidParams):
        build_tree(2, n_lat=3, sigma=1)
    for n_lat in (0, -3):
        with pytest.raises(InvalidParams, match="N must be >= 1"):
            build_tree(2, n_lat=n_lat)


def test_tree_rejects_negative_grid_and_never_verifies_on_no_points(monkeypatch):
    with pytest.raises(InvalidParams):
        tree_verdicts(build_tree(1), -1)
    nodes = build_tree(2)
    assert tree_verdicts(nodes[:1], 0)[0][0] is True  # the seed's form at M = L = 0
    # (1,4,0,1) has no closed form; with every edge point skipped, nothing is
    # compared, so its verdict is open
    monkeypatch.setattr(burge, "edge_applies", lambda *args: False)
    assert (nodes[3].labels, nodes[3].closed_form_name) == ((1, 4, 0, 1), None)
    assert tree_verdicts(nodes, 2)[3] == (None, None, [])


def test_tree_rejects_a_grid_above_the_cap():
    # each node checks (grid + 1)^2 points, so the cap holds for every caller
    for grid in (TREE_GRID_CAP + 1, 30):
        with pytest.raises(InvalidParams, match=f"verify_grid must lie in 0..{TREE_GRID_CAP}"):
            tree_verdicts(build_tree(1), grid)
    assert tree_verdicts(build_tree(0), TREE_GRID_CAP)[0][0] is True
