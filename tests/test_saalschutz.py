import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qident
from qident import saalschutz
from qident.errors import InvalidParams, UnbalancedParameters
from qident.qbinom import qbin
from qident.qpoly import _PAIRS_PER_TERM, ONE, ZERO, QPoly, mul, qpoch, render
from qident.saalschutz import (
    ClassicParams,
    SaalschutzParams,
    gensum_lhs,
    gensum_rhs,
    qcv_lhs,
    qcv_rhs,
    qs2_exceptional,
    qs2_lhs,
    qs2_rhs,
    sears_lhs,
    sears_rhs,
)

from oracles import exact_div


# --- independent oracle -------------------------------------------------------
# Direct transcription of the summation formula: own matrix inverse, own
# binomial (product ratio), own box enumeration.  Shares only the QPoly ring.

def oracle_qbin(top: int, bottom: int) -> QPoly:
    if bottom < 0 or top - bottom < 0:
        return ZERO
    num = ONE
    for k in range(top - bottom + 1, top + 1):
        num = mul(num, ONE - QPoly.monomial(1, k))
    return exact_div(num, qpoch(1, bottom))


def oracle_cinv(n):
    rank = n - 1
    c = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank)] for i in range(rank)]
    aug = [[Fraction(c[i][j]) for j in range(rank)] + [Fraction(i == j) for j in range(rank)] for i in range(rank)]
    for col in range(rank):
        piv = next(r for r in range(col, rank) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(rank):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[rank:] for row in aug]


def oracle_systems(n, v, offset):
    """(n_vec, m_vec) pairs by raw box scan, restriction checked by Fractions."""
    rank = n - 1
    if rank == 0:
        return [((), ())] if Fraction(offset).denominator == 1 else []
    cinv = oracle_cinv(n)
    hi = sum(abs(x) for x in v) + 2
    out = []

    def rec(prefix):
        if len(prefix) == rank:
            first = sum(cinv[0][j] * prefix[j] for j in range(rank))
            if (Fraction(offset) + first).denominator != 1:
                return
            m = [sum(cinv[i][j] * (v[j] - 2 * prefix[j]) for j in range(rank)) for i in range(rank)]
            if all(x.denominator == 1 and x >= 0 for x in m):
                out.append((tuple(prefix), tuple(int(x) for x in m)))
            return
        for x in range(hi + 1):
            rec(prefix + [x])

    rec([])
    return out


def oracle_gensum_sides(n, sigma, ell, m_cap, l1, l2):
    cinv = oracle_cinv(n)
    rank = n - 1

    def qform(vec):
        return sum(cinv[i][j] * vec[i] * vec[j] for i in range(rank) for j in range(rank))

    def vec_binom(mv, nv):
        out = ONE
        for a, b in zip(mv, nv):
            out = mul(out, oracle_qbin(a + b, b))
        return out

    lhs = ZERO
    for i in range(m_cap + 1):
        v = [0] * rank
        if rank:
            v[0] = 2 * i + ell
        for nv, mv in oracle_systems(n, v, Fraction(2 * i + ell + sigma * n, 2 * n)):
            m1 = mv[0] if rank else 0
            t = vec_binom(mv, nv)
            t = mul(t, oracle_qbin(int(l1 + Fraction(m1, 2)), i + ell))
            t = mul(t, oracle_qbin(int(l2 + Fraction(m1, 2)), i))
            t = mul(t, oracle_qbin(int(l1 + l2) + m_cap - i, m_cap - i))
            e = Fraction(i * (i + ell), n) + qform(nv)
            lhs = lhs + t.times_monomial(1, e.numerator, e.denominator)
    rhs = ZERO
    v = [0] * rank
    if rank:
        v[0] += m_cap + ell
        v[rank - 1] += m_cap
    for nv, mv in oracle_systems(n, v, Fraction(ell + sigma * n, 2 * n)):
        mu1 = mv[0] if rank else m_cap
        mu_last = mv[-1] if rank else m_cap + ell
        t = vec_binom(mv, nv)
        t = mul(t, oracle_qbin(int(l1 + Fraction(m_cap + mu1, 2)), m_cap + ell))
        t = mul(t, oracle_qbin(int(l2 + Fraction(m_cap + ell + mu_last, 2)), m_cap))
        e = qform(nv)
        rhs = rhs + t.times_monomial(1, e.numerator, e.denominator)
    return lhs, rhs


# --- qs2 -------------------------------------------------------------------------

def test_qs2_examples():
    p = ClassicParams(1, 1, 1, 0)
    both = QPoly({0: 1, 1: 2, 2: 1})
    assert qs2_lhs(p) == both and qs2_rhs(p) == both
    p = ClassicParams(2, 3, -1, 1)
    assert qs2_lhs(p) == ZERO and qs2_rhs(p) == ZERO
    p = ClassicParams(1, -1, 0, 1)
    assert qs2_lhs(p) == ZERO and qs2_rhs(p) == ONE


def test_qs2_exceptional_predicate():
    assert qs2_exceptional(ClassicParams(1, -1, 0, 1))
    assert not qs2_exceptional(ClassicParams(3, 2, 4, 1))
    assert not qs2_exceptional(ClassicParams(-1, 1, 0, -1))


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=200, deadline=None)
def test_qs2_identity_or_documented_failure(L1, L2, M, ell):
    p = ClassicParams(L1, L2, M, ell)
    lhs, rhs = qs2_lhs(p), qs2_rhs(p)
    if qs2_exceptional(p):
        assert lhs == ZERO
        assert rhs != ZERO
    else:
        assert lhs == rhs



def test_qs2_lhs_is_its_sum_of_products_beyond_the_default_box():
    packed = []  # per draw: whether two or more terms are above mul's cut-over
    axis = st.one_of(st.integers(-12, 12), st.integers(3, 12))  # half the draws where sums are long

    @given(axis, axis, axis, st.integers(-12, 12))
    @settings(max_examples=300, deadline=None)
    def check(L1, L2, M, ell):
        total, dense = ZERO, 0
        if L1 + L2 >= 0:  # the sum as one running total, a product at a time
            for i in range(max(0, -ell), min(M, L2, L1 - ell) + 1):
                outer = qbin(L1 + L2 + M - i, M - i)
                inner = mul(qbin(L1, i + ell), qbin(L2, i)).times_monomial(1, i * (i + ell))
                total = total + mul(outer, inner)
                dense += len(outer) * len(inner) > _PAIRS_PER_TERM * (len(outer) + len(inner))
        assert qs2_lhs(ClassicParams(L1, L2, M, ell)) == total
        packed.append(dense >= 2)

    check()
    assert sum(packed) >= 20, f"{sum(packed)} of {len(packed)} draws packed two products or more"


# --- qcv ---------------------------------------------------------------------------

def test_qcv_examples():
    p = ClassicParams(1, 1, 0, 0)
    assert qcv_lhs(p) == qcv_rhs(p) == QPoly({0: 1, 1: 1})
    p = ClassicParams(2, 3, 0, 4)  # ell > L1 >= 0
    assert qcv_lhs(p) == qcv_rhs(p) == ZERO
    p = ClassicParams(2, 1, 0, 1)
    assert qcv_lhs(p) == qcv_rhs(p) == QPoly({0: 1, 1: 1, 2: 1})


def test_qcv_grid():
    for L1 in range(-5, 6):
        for L2 in range(-5, 6):
            for ell in range(-5, 6):
                p = ClassicParams(L1, L2, 0, ell)
                exceptional = (-L1 <= -ell <= L2 < 0) or (-L2 <= ell <= L1 < 0)
                if exceptional:
                    assert qcv_lhs(p) == ZERO
                else:
                    assert qcv_lhs(p) == qcv_rhs(p), (L1, L2, ell)


# --- sears ---------------------------------------------------------------------------

def test_sears_balance_enforced():
    with pytest.raises(UnbalancedParameters):
        sears_lhs(1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(UnbalancedParameters):
        sears_rhs(0, 1, 0, 2, 3, 0, 1)


def test_sears_trivial_point():
    assert sears_lhs(0, 0, 0, 0, 0, 0, 0) == ONE
    assert sears_rhs(0, 0, 0, 0, 0, 0, 0) == ONE


def test_sears_a_zero_single_rhs_term():
    # with a = 0 the right side collapses to its i = -g term
    a, c, d, e, g = 0, 1, 2, 0, -1
    for f in range(-3, 4):
        b = c + d + f - a
        rhs = sears_rhs(a, b, c, d, e, f, g)
        i = -g
        from qident.qbinom import qbin_mod_tb

        single = qbin_mod_tb(a - g, a - g - i)
        for top, bottom in ((b - d + e, c - i), (c + d - i, c + e), (i + f, i + g)):
            single = mul(single, qbin_mod_tb(top, bottom))
        single = single.times_monomial(1, i * (i - a + e + g))
        assert rhs == single, f


def test_sears_randomized():
    rng = random.Random(20260819)
    seen = nonzero = 0
    while seen < 250:
        a, c, d, e, f, g = (rng.randint(-6, 8) for _ in range(6))
        b = c + d + f - a
        if not -6 <= b <= 8:
            continue
        seen += 1
        lhs, rhs = sears_lhs(a, b, c, d, e, f, g), sears_rhs(a, b, c, d, e, f, g)
        assert lhs == rhs, (a, b, c, d, e, f, g)
        if not lhs.is_zero():
            nonzero += 1
    assert nonzero >= 20


def test_sears_window_fringe_vanishes():
    # one term beyond each window edge is identically zero
    from qident.qbinom import qbin_mod_tb

    cases = [(2, 3, 1, 2, -1, 2, 1), (1, 5, 2, 3, 0, 1, -2)]
    for a, b, c, d, e, f, g in cases:
        assert a + b == c + d + f
        for i in (max(-e, -g) - 1, c + 1):
            term = qbin_mod_tb(i + a, a)
            for top, bottom in ((b - i, c - i), (d, i + e), (f, i + g)):
                term = mul(term, qbin_mod_tb(top, bottom))
            assert term == ZERO
        for i in (-g - 1, min(a - g, c) + 1):
            term = qbin_mod_tb(a - g, a - g - i)
            for top, bottom in ((b - d + e, c - i), (c + d - i, c + e), (i + f, i + g)):
                term = mul(term, qbin_mod_tb(top, bottom))
            assert term == ZERO


# --- gensum -----------------------------------------------------------------------------

def test_gensum_validation():
    with pytest.raises(InvalidParams):
        gensum_lhs(SaalschutzParams(0, 0, 0, 1, 1, 1))
    with pytest.raises(InvalidParams):
        gensum_lhs(SaalschutzParams(2, 0, 1, 1, 1, 1))  # ell+sigma*N odd
    with pytest.raises(InvalidParams):
        gensum_lhs(SaalschutzParams(1, 0, 0, 1, -1, 1))
    with pytest.raises(InvalidParams):
        # L integral but L+(ell+sigma)/2 is not
        gensum_lhs(SaalschutzParams(2, 1, 0, 1, 1, 1))
    with pytest.raises(InvalidParams):
        gensum_rhs(SaalschutzParams(2, 2, 0, 1, 1, 1))  # sigma out of range


def test_gensum_n1_reduces_to_qs2():
    for ell in range(-3, 4):
        sigma = ell % 2
        for M in range(0, 4):
            for L1 in range(0, 4):
                for L2 in range(0, 4):
                    sp = SaalschutzParams(1, sigma, ell, M, L1, L2)
                    cp = ClassicParams(L1, L2, M, ell)
                    assert gensum_lhs(sp) == qs2_lhs(cp)
                    assert gensum_rhs(sp) == qs2_rhs(cp)


def test_gensum_zero_for_negative_m():
    sp = SaalschutzParams(2, 0, -2, -1, 1, 1)
    assert gensum_lhs(sp) == ZERO
    assert gensum_rhs(sp) == ZERO


def test_gensum_matches_direct_oracle():
    cases = [
        (2, 0, 0, 1, 1, 1),
        (2, 0, 2, 2, 2, 1),
        (3, 1, 1, 2, 2, 2),
        (3, 0, -2, 3, 2, 3),
        (2, 1, 0, 2, Fraction(3, 2), Fraction(5, 2)),
        (4, 0, 2, 2, 1, 2),
    ]
    for n, sigma, ell, m_cap, l1, l2 in cases:
        sp = SaalschutzParams(n, sigma, ell, m_cap, l1, l2)
        olhs, orhs = oracle_gensum_sides(n, sigma, ell, m_cap, Fraction(l1), Fraction(l2))
        assert gensum_lhs(sp) == olhs, (n, sigma, ell, m_cap, l1, l2)
        assert gensum_rhs(sp) == orhs, (n, sigma, ell, m_cap, l1, l2)
        assert olhs == orhs


def test_gensum_theorem_sampled():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        ell = rng.randint(-4, 4)
        if n % 2:
            sigma = ell % 2
        else:
            if ell % 2:
                continue
            sigma = rng.randint(0, 1)
        halfstep = (ell + sigma) % 2
        L1 = rng.randint(0, 4) + Fraction(halfstep, 2)
        L2 = rng.randint(0, 4) + Fraction(halfstep, 2)
        M = rng.randint(0, 5)
        sp = SaalschutzParams(n, sigma, ell, M, L1, L2)
        assert gensum_lhs(sp) == gensum_rhs(sp), sp


def test_gensum_symmetry():
    # swapping (L1, M) <-> (L2, M+ell) with ell -> -ell fixes both sides
    for (n, sigma, ell, M, L1, L2) in [(2, 0, 2, 1, 2, 1), (3, 1, 1, 2, 3, 1), (1, 1, 3, 2, 2, 4)]:
        a = SaalschutzParams(n, sigma, ell, M, L1, L2)
        b = SaalschutzParams(n, sigma, -ell, M + ell, L2, L1)
        assert gensum_lhs(a) == gensum_lhs(b)
        assert gensum_rhs(a) == gensum_rhs(b)


# --- inner-sum memos ---------------------------------------------------------------------

_QS2_GRID = [(l1, l2, m, ell) for l1 in range(-2, 5) for l2 in range(-2, 5)
             for m in range(0, 5) for ell in range(-2, 4)]
_GENSUM_GRID = [(n, sigma, ell, m, Fraction(t1, 2), Fraction(t2, 2))
                for n in (1, 2, 3) for sigma in (0, 1) for ell in range(-2, 3)
                if (ell + sigma * n) % 2 == 0
                for m in range(0, 4) for t1 in range(0, 5) for t2 in range(0, 5)
                if (t1 + ell + sigma) % 2 == 0 and (t2 + ell + sigma) % 2 == 0]

_FRESH = """
import json, sys
from fractions import Fraction
from qident.qpoly import render
from qident.saalschutz import ClassicParams, SaalschutzParams, gensum_lhs, qs2_lhs
qs2, gensum = json.load(sys.stdin)
print(json.dumps([[render(qs2_lhs(ClassicParams(*p))) for p in qs2],
                  [render(gensum_lhs(SaalschutzParams(*p[:4], Fraction(p[4]), Fraction(p[5]))))
                   for p in gensum]]))
"""


def test_memoized_lhs_over_a_shuffled_grid_equals_a_fresh_process():
    # the fresh process walks each grid in grid order, one call per point;
    # here the points come in random order, so the memos change prefix
    # almost every call, and twice over, so the second pass can hit
    grids = [_QS2_GRID, [(*p[:4], str(p[4]), str(p[5])) for p in _GENSUM_GRID]]
    env = dict(os.environ, PYTHONPATH=str(Path(qident.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-c", _FRESH], input=json.dumps(grids), env=env,
                           capture_output=True, text=True, check=True)
    want_qs2, want_gensum = json.loads(fresh.stdout)
    rng = random.Random(5)
    for _ in range(2):
        for i in rng.sample(range(len(_QS2_GRID)), len(_QS2_GRID)):
            assert render(qs2_lhs(ClassicParams(*_QS2_GRID[i]))) == want_qs2[i], _QS2_GRID[i]
        for i in rng.sample(range(len(_GENSUM_GRID)), len(_GENSUM_GRID)):
            sp = SaalschutzParams(*_GENSUM_GRID[i])
            assert render(gensum_lhs(sp)) == want_gensum[i], sp


def test_memos_hold_only_the_current_prefix():
    qs2_lhs(ClassicParams(3, 2, 4, 0))
    assert saalschutz._QS2_INNER.keys() == {(3, 2)}
    # only the live terms i in 0..min(M, L2, L1 - ell) = 0..2 are computed
    assert saalschutz._QS2_INNER[3, 2].keys() == {(0, i) for i in range(3)}
    qs2_lhs(ClassicParams(2, 3, 1, 1))
    assert saalschutz._QS2_INNER.keys() == {(2, 3)}
    assert saalschutz._QS2_INNER[2, 3].keys() == {(1, 0), (1, 1)}

    gensum_lhs(SaalschutzParams(2, 0, 0, 2, 1, 2))
    assert saalschutz._GENSUM_INNER.keys() == {(2, 0, 0)}
    assert saalschutz._GENSUM_INNER[2, 0, 0].keys() == {(i, 2, 4) for i in range(3)}
    gensum_lhs(SaalschutzParams(2, 0, 0, 1, 2, 2))  # same prefix: the values pile up
    assert saalschutz._GENSUM_INNER[2, 0, 0].keys() == {(i, 2, 4) for i in range(3)} | {(0, 4, 4), (1, 4, 4)}
    gensum_lhs(SaalschutzParams(3, 1, 1, 1, 1, 1))
    assert saalschutz._GENSUM_INNER.keys() == {(3, 1, 1)}
    assert saalschutz._GENSUM_INNER[3, 1, 1].keys() == {(0, 2, 2), (1, 2, 2)}


def test_an_inner_sum_that_raises_is_not_stored(monkeypatch):
    # L1 = L2 = 1/2 at ell = sigma = 0 breaks the parity rule, so the
    # (m,n)-system weight meets the half-integral top 1/2 at i = 0; a
    # validation that finds nothing lets the point through, as a bug in it would
    monkeypatch.setattr(SaalschutzParams, "violation", lambda self: None)
    bad = SaalschutzParams(1, 0, 0, 1, Fraction(1, 2), Fraction(1, 2))
    for _ in range(2):
        with pytest.raises(InvalidParams, match="binomial entry"):
            gensum_lhs(bad)
        assert saalschutz._GENSUM_INNER == {(1, 0, 0): {}}


def test_the_right_side_memo_holds_only_the_current_prefix():
    # H(mu_1) is free of L1, so it is kept per 2 L2 under the prefix (N, sigma, ell, M)
    saalschutz._GENSUM_RHS.clear()
    first = gensum_rhs(SaalschutzParams(3, 0, 0, 4, 1, 2))
    assert saalschutz._GENSUM_RHS.keys() == {(3, 0, 0, 4)}
    assert saalschutz._GENSUM_RHS[3, 0, 0, 4].keys() == {4}
    parts = saalschutz._GENSUM_RHS[3, 0, 0, 4][4]
    # the classes (mu_1, mu_last) are (4, 4), (2, 0), (2, 2), (0, 0), (0, 2): H(2) and H(0) sum two
    assert parts.keys() == {4, 2, 0}
    gensum_rhs(SaalschutzParams(3, 0, 0, 4, 3, 2))  # a new L1 reuses the parts
    assert saalschutz._GENSUM_RHS[3, 0, 0, 4] == {4: parts}
    assert saalschutz._GENSUM_RHS[3, 0, 0, 4][4] is parts
    gensum_rhs(SaalschutzParams(3, 0, 0, 4, 1, 1))  # a new L2 adds its own
    assert saalschutz._GENSUM_RHS[3, 0, 0, 4].keys() == {4, 2}
    gensum_rhs(SaalschutzParams(3, 0, 0, 2, 1, 2))  # M moves: the prefix moves
    assert saalschutz._GENSUM_RHS.keys() == {(3, 0, 0, 2)}
    assert saalschutz._GENSUM_RHS[3, 0, 0, 2].keys() == {4}
    saalschutz._GENSUM_RHS.clear()
    assert gensum_rhs(SaalschutzParams(3, 0, 0, 4, 1, 2)) == first
    assert first == oracle_gensum_sides(3, 0, 0, 4, 1, 2)[1]


def test_a_right_side_that_raises_is_not_stored(monkeypatch):
    # as in the left-side test: mu_last = M + ell = 1 meets the top (1 + 1 + 1)/2
    monkeypatch.setattr(SaalschutzParams, "violation", lambda self: None)
    bad = SaalschutzParams(1, 0, 0, 1, Fraction(1, 2), Fraction(1, 2))
    for _ in range(2):
        with pytest.raises(InvalidParams, match="binomial entry"):
            gensum_rhs(bad)
        assert saalschutz._GENSUM_RHS == {(1, 0, 0, 1): {}}


# --- cleared-denominator limit ------------------------------------------------------------

def cbp_n1_sum(M, ell):
    """sum_{i=0}^M q^{i(i+ell)} [M over i] (q^{i+ell+1}; q)_{M-i}, the
    conjugate-pair normalization with its denominators cleared: it is 1."""
    total = ZERO
    for i in range(0, M + 1):
        total = total + mul(qbin(M, i), qpoch(i + ell + 1, M - i)).times_monomial(1, i * (i + ell))
    return total


def test_cbp_examples():
    assert cbp_n1_sum(0, 0) == ONE
    assert cbp_n1_sum(2, 1) == ONE
    assert cbp_n1_sum(3, 0) == ONE


def test_cbp_grid():
    for M in range(0, 7):
        for ell in range(-M, 7):
            assert cbp_n1_sum(M, ell) == ONE, (M, ell)
