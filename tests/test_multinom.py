"""Multinomial column sums: definition, decomposition, difference identity.

Oracles: inclusion-exclusion for the classical coefficient (independent of
the convolution code under test), and a wide-window transcription for the
bilateral configuration sum.  The q-level cross-checks triangulate through
three independent routes: the defining eta-sum, the quadratic decomposition,
and the q -> 1 specialization.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.burge import BurgeParams, burge_xn
from qident.errors import InvalidParams, NonPolynomial
from qident.lattice import axis_source, cartan, enumerate_admissible
from qident.multinom import (
    MultinomialQuery,
    _t_sum,
    abf_config_sum,
    classical_limit,
    classical_multinomial,
    difference_sides,
    t_multinomial,
    tnew_rhs,
)
from qident.qbinom import qbin
from qident.qpoly import ONE, ZERO, QPoly, Truncation, eval_at_one, mul, qpoch, render
from qident.saalschutz import ClassicParams, qcv_lhs

from oracles import exact_div


def oracle_classical(N, L, a):
    # coefficient of x^k in (1+x+...+x^N)^L by inclusion-exclusion:
    # sum_j (-1)^j C(L,j) C(k - j(N+1) + L - 1, L - 1)
    k = int(Fraction(a) + Fraction(N * L, 2))
    if L == 0:
        return 1 if k == 0 else 0
    total = 0
    for j in range(L + 1):
        rem = k - j * (N + 1)
        if rem < 0:
            break
        total += (-1) ** j * math.comb(L, j) * math.comb(rem + L - 1, L - 1)
    return total


def oracle_abf(p, s, L):
    total = ZERO
    span = (2 * L + abs(s)) // p + 3
    for j in range(-span, span + 1):
        for delta in (1, -1):
            num = L - s + delta
            if (num - 2 * p * j) % 2:
                continue
            term = qbin(L, (num - 2 * p * j) // 2)
            total = total + term.times_monomial(delta, j * (p * j + s))
    return total


def admissible_a(N, L):
    return [Fraction(t, 2) for t in range(-N * L, N * L + 1, 2)]


class TestClassical:
    def test_spec_values(self):
        assert classical_multinomial(1, 4, 0) == 6
        assert classical_multinomial(2, 2, 0) == 3
        for N, L in [(1, 3), (2, 4), (3, 2)]:
            assert classical_multinomial(N, L, Fraction(N * L, 2)) == 1
            assert classical_multinomial(N, L, -Fraction(N * L, 2)) == 1

    def test_against_inclusion_exclusion(self):
        for N in range(1, 5):
            for L in range(0, 7):
                for a in admissible_a(N, L):
                    assert classical_multinomial(N, L, a) == oracle_classical(N, L, a)

    def test_row_total(self):
        # all columns of a row sum to (N+1)^L
        for N in range(1, 4):
            for L in range(0, 5):
                assert sum(classical_multinomial(N, L, a) for a in admissible_a(N, L)) == (N + 1) ** L


class TestQueryValidation:
    @pytest.mark.parametrize(
        "args",
        [
            (0, 2, 0, 0),
            (2, -1, 0, 0),
            (2, 2, Fraction(1, 4), 0),
            (2, 2, 3, 0),
            (2, 2, Fraction(1, 2), 0),  # parity: 2a must match NL mod 2
            (2, 2, 0, 2),
            (2, 2, 0, -1),
        ],
    )
    def test_rejects(self, args):
        with pytest.raises(InvalidParams):
            MultinomialQuery(*args).validate()

    def test_accepts_half_integer(self):
        MultinomialQuery(2, 1, Fraction(1, 1), 1).validate()
        MultinomialQuery(3, 1, Fraction(1, 2), 2).validate()


class TestDefiningSum:
    def test_n1_is_gaussian(self):
        for L in range(0, 8):
            for a in admissible_a(1, L):
                got = t_multinomial(MultinomialQuery(1, L, a))
                assert got == qbin(L, int(Fraction(L, 2) - a))

    def test_hand_cases(self):
        # (q)_1 / ((q)_0 (q)_0 (q)_1) * q^(1/2) with eta = (1)
        assert render(t_multinomial(MultinomialQuery(2, 1, 0))) == "q^(1/2)"
        assert render(t_multinomial(MultinomialQuery(2, 2, 0))) == "1 + q + q^2"
        assert render(t_multinomial(MultinomialQuery(2, 2, 2))) == "1"
        # eta = (1): (q)_2/((q)_1(q)_1) q^(1/2) shifted by the outer q^(1/2)
        assert render(t_multinomial(MultinomialQuery(2, 2, 1))) == "q^(1/2) + q^(3/2)"
        # n_index = 1 shifts the quadratic form by (Cinv eta)_1
        assert render(t_multinomial(MultinomialQuery(2, 2, 0, 1))) == "1 + 2*q"

    def test_coefficients_nonnegative(self):
        for N in range(1, 5):
            for L in range(0, 5):
                for a in admissible_a(N, L):
                    for n_idx in range(N):
                        poly = t_multinomial(MultinomialQuery(N, L, a, n_idx))
                        assert all(c > 0 for _, c in poly.items())

    def test_symmetry_in_a(self):
        for N in range(1, 5):
            for L in range(0, 6):
                for a in admissible_a(N, L):
                    lhs = t_multinomial(MultinomialQuery(N, L, a))
                    rhs = t_multinomial(MultinomialQuery(N, L, -a))
                    assert lhs == rhs

    @given(
        N=st.integers(min_value=1, max_value=4),
        L=st.integers(min_value=0, max_value=6),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_property(self, N, L, pick):
        choices = admissible_a(N, L)
        a = choices[pick % len(choices)]
        assert t_multinomial(MultinomialQuery(N, L, a)) == t_multinomial(
            MultinomialQuery(N, L, -a)
        )

    def test_classical_limit_matches_dp(self):
        for N in range(1, 5):
            for L in range(0, 7):
                for a in admissible_a(N, L):
                    poly = t_multinomial(MultinomialQuery(N, L, a))
                    assert classical_limit(poly) == classical_multinomial(N, L, a)

    def test_classical_limit_all_columns(self):
        # the e_n shift moves exponents only, never the q -> 1 value
        for n_idx in range(3):
            poly = t_multinomial(MultinomialQuery(3, 4, 1, n_idx))
            assert classical_limit(poly) == classical_multinomial(3, 4, 1)

    def test_eval_at_one_when_integral(self):
        poly = t_multinomial(MultinomialQuery(2, 2, 0))
        assert eval_at_one(poly) == 3 == classical_limit(poly)

    def test_eval_at_one_rejects_fractional(self):
        with pytest.raises(NonPolynomial):
            eval_at_one(t_multinomial(MultinomialQuery(2, 1, 0)))


def t_sum_by_division(cd, L, a, n_index):
    """The defining eta-sum with Fraction bookkeeping: (q)_L over the product of
    (q)_k1, (q)_k2 and every (q)_eta_j, divided exactly, for a rational a."""
    rank, den = cd.rank, cd.cinv_den

    def comp(eta, idx):  # (Cinv eta)_{idx+1}
        return Fraction(sum(r * x for r, x in zip(cd.cinv_num[idx], eta)), den)

    half_l, shift = Fraction(L, 2), Fraction(a) / cd.n
    bound = (cd.n * L - 2 * abs(Fraction(a))) / 2
    total = ZERO
    if bound < 0:
        return total
    top = math.floor(bound)  # sum(eta) <= bound, compared as integers
    for eta in itertools.product(range(top + 1), repeat=rank):
        if sum(eta) > top:
            continue
        first = comp(eta, 0) if rank else Fraction(0)
        if (half_l + shift + first).denominator != 1:
            continue
        last = comp(eta, rank - 1) if rank else Fraction(0)
        k1, k2 = half_l - shift - first, half_l + shift - last
        if k1 < 0 or k2 < 0:
            continue
        assert k1.denominator == k2.denominator == 1
        blocks = mul(qpoch(1, k1.numerator), qpoch(1, k2.numerator))
        for e in eta:
            blocks = mul(blocks, qpoch(1, e))
        exp = sum((eta[i] * comp(eta, i) for i in range(rank)), Fraction(0))
        if n_index:
            exp -= comp(eta, n_index - 1)
        term = exact_div(qpoch(1, L), blocks)
        total = total + term.times_monomial(1, exp.numerator, exp.denominator)
    return total


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_integer_t_sum_matches_division_definition(N):
    cd = cartan(N)
    checked = 0
    for L in range(0, 7):
        for two_a in range(-N * L, N * L + 1, 2):
            for n_index in range(N):
                want = t_sum_by_division(cd, L, Fraction(two_a, 2), n_index)
                assert _t_sum(cd, L, two_a, n_index) == want, (N, L, two_a, n_index)
                checked += not want.is_zero()
    assert checked


class TestDecomposition:
    def test_matches_defining_sum(self):
        for N in (1, 2, 3, 4):
            for L in range(0, 7):
                for ell in range(0, N * L + 1):
                    if (ell - N * L) % 2:
                        continue
                    got = tnew_rhs(N, L, ell, L % 2)
                    want = t_multinomial(MultinomialQuery(N, L, Fraction(ell, 2)))
                    assert got == want, (N, L, ell)

    def test_n1_is_column_vanishing_sum(self):
        for L in range(0, 9):
            for ell in range(L % 2, L + 1, 2):
                got = tnew_rhs(1, L, ell, L % 2)
                want = qcv_lhs(ClassicParams((L + ell) // 2, (L - ell) // 2, 0, ell))
                assert got == want

    def test_sigma_validation(self):
        with pytest.raises(InvalidParams):
            tnew_rhs(2, 2, 0, 1)
        with pytest.raises(InvalidParams):
            tnew_rhs(2, 2, 0, 2)


class TestDifferenceIdentity:
    def test_holds_on_grid(self):
        for N in (3, 4):
            for L in range(0, 6):
                for n_idx in range(1, N - 1):
                    for ell in range(0, 6):
                        if (n_idx - ell - N * L) % 2:
                            continue
                        lhs, rhs = difference_sides(N, L, ell, n_idx)
                        assert lhs == rhs, (N, L, ell, n_idx)

    def test_rejects_empty_index_range(self):
        with pytest.raises(InvalidParams):
            difference_sides(2, 3, 1, 1)
        with pytest.raises(InvalidParams):
            difference_sides(3, 3, 1, 0)
        with pytest.raises(InvalidParams):
            difference_sides(3, 3, 1, 2)

    def test_rejects_bad_parity(self):
        with pytest.raises(InvalidParams):
            difference_sides(3, 1, 1, 1)

    def test_unsubtracted_halves_differ(self):
        # the subtracted combination is an identity, its halves are not
        from qident.multinom import _t_sum

        found = False
        for L in range(0, 5):
            for ell in range(0, 4):
                N, n_idx = 3, 1
                if (n_idx - ell - N * L) % 2:
                    continue
                cd = cartan(N)
                f = _t_sum(cd, L, n_idx - ell, n_idx)  # a = (n - ell)/2, passed as 2a
                g = ZERO
                src = N - n_idx
                for i in range(0, max(0, (N * L - ell + n_idx) // 2) + 1):
                    v = axis_source(cd.rank, [(1, 2 * i + ell), (src, 1)])
                    offset = N * L + 2 * i + ell - n_idx  # L/2 + (2i+ell-n)/(2N), over 2N
                    inner = ZERO
                    for sol in enumerate_admissible(cd, v, offset):
                        m1 = sol.m_vec[0]
                        t = mul(
                            qbin((L + ell + m1) // 2, i + ell),
                            qbin((L - ell + m1) // 2, i),
                        )
                        if t.is_zero():
                            continue
                        vec = ONE
                        for mj, nj in zip(sol.m_vec, sol.n_vec):
                            vec = mul(vec, qbin(mj + nj, nj))
                        exp = cd.qform(sol.n_vec) - cd.cinv_component(sol.n_vec, src - 1)
                        inner = inner + mul(t, vec).times_monomial(1, exp, cd.cinv_den)
                    g = g + inner.times_monomial(1, i * (i + ell), N)
                if f != g:
                    found = True
        assert found


class TestConfigSum:
    def test_against_oracle(self):
        for p in range(2, 6):
            for s in range(0, 8):
                for L in range(0, 9):
                    assert abf_config_sum(p, s, L) == oracle_abf(p, s, L), (p, s, L)

    def test_initial_condition(self):
        for p in range(2, 7):
            for s in range(1, p):
                want = ONE if s == 1 else ZERO
                assert abf_config_sum(p, s, 0) == want

    def test_parity_vanishing(self):
        for p in range(2, 6):
            for s in range(0, 7):
                for L in range(0, 7):
                    if (L - s) % 2 == 0:
                        assert abf_config_sum(p, s, L).is_zero()

    def test_negative_exponent_point(self):
        assert render(abf_config_sum(4, 9, 2)) == "q^-4"

    def test_cap_keeps_exactly_the_terms_up_to_it(self):
        # s from 0 to p+1: the heights 1..p-1, their parity partners and negative shifts
        for p in range(2, 9):
            for s in range(0, p + 2):
                for L in range(0, 31):
                    exact = abf_config_sum(p, s, L)
                    for cap in range(0, 41):
                        got = abf_config_sum(p, s, L, cap)
                        assert got == exact.truncate(Truncation(cap)), (p, s, L, cap)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            abf_config_sum(1, 1, 3)
        with pytest.raises(InvalidParams):
            abf_config_sum(3, 1, -1)


def config_limit_sides(p, pp, r, s, N, M12, L1, D):
    """(q)_L X^{(N)} at (M2 + M12, L1, M2, L1 + M12 + (r-s)/N) for M2 = 2D + 2,
    and the bilateral difference of n = 0 multinomial columns it tends to as
    M2 grows with M12 fixed, both truncated at degree D.

    L = 2 L1 + M12 + (r-s)/N is the width, and sigma is fixed by
    L - (r-s)/N + sigma even.  The weight is (q)_L: (q)_2L instead provably
    breaks at (2,5,1,2), M12 = 1, L = 2.
    """
    skew = Fraction(r - s, N)
    L = 2 * L1 + M12 + skew
    assert L.denominator == 1 and L >= 0
    L = int(L)
    sigma = int((L - skew) % 2)
    trunc, M2 = Truncation(D), 2 * D + 2
    bp = BurgeParams(p, pp, r, s, M2 + M12, L1, M2, L1 + M12 + skew, N=N, sigma=sigma)
    lhs = mul(qpoch(1, L), burge_xn(bp), trunc)
    cd = cartan(N)
    target = ZERO
    two_rms, two_rps = r + M12 - s, r + M12 + s  # twice the a of each column at j = 0
    j_span = (N * L + abs(two_rms) + abs(two_rps)) // (2 * pp) + 2
    for j in range(-j_span, j_span + 1):
        two_a1 = two_rms + 2 * pp * j
        if abs(two_a1) <= N * L:
            t = _t_sum(cd, L, two_a1, 0)
            target = target + t.times_monomial(1, j * (p * pp * j + pp * (M12 + r) - p * s), N)
        two_a2 = two_rps + 2 * pp * j
        if abs(two_a2) <= N * L:
            t = _t_sum(cd, L, two_a2, 0)
            target = target - t.times_monomial(1, (p * j + M12 + r) * (pp * j + s), N)
    return lhs, mul(target, ONE, trunc)


class TestConfigLimit:
    """The configuration-sum limit, checked exactly at one large M2.

    Each case is one exact comparison at M2 = 2D + 2.  On these cases the
    truncated left side stops changing by M2 = D, so this M2 lies past it;
    no stabilization is watched, and a pass is a statement about integer
    coefficients at that M2.
    """

    @pytest.mark.parametrize(
        "p,pp,r,s,N,M12,L1",
        [
            (1, 2, 0, 1, 1, 1, 1),
            (2, 5, 1, 2, 1, 1, 1),
            (3, 4, 1, 1, 1, 1, 1),
            (1, 3, 1, 1, 2, 0, 1),
            (2, 4, 1, 1, 2, 0, 1),
            (2, 5, 1, 1, 3, 0, 1),
        ],
    )
    def test_limit_matches(self, p, pp, r, s, N, M12, L1):
        lhs, rhs = config_limit_sides(p, pp, r, s, N, M12, L1, 8)
        assert lhs == rhs

    def test_constant_term_only(self):
        lhs, rhs = config_limit_sides(1, 2, 0, 1, 1, 1, 1, 0)
        assert lhs == rhs
