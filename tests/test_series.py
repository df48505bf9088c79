"""Truncated series checks: Durfee dissection, conjugate pairs, strings.

The verification routes are independent by construction (configuration
sums vs lattice sums vs restricted eta-sums), so the tests here mostly
pin the examples, the validation surface, and the refinement property:
raising the cap never changes already-computed coefficients.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import series
from qident.errors import InvalidParams, StabilizationFailure
from qident.lattice import CartanData, cartan
from qident.qpoly import (
    ONE,
    Truncation,
    euler_inverse_truncated,
    invert_truncated,
    mul,
    qpoch,
    render,
    truncated_equal,
)
from qident.series import (
    BaileyPairQuery,
    StringFunctionQuery,
    _eta_shell,
    conjugate_pair_check,
    durfee_check,
    limlm_check,
    product_side,
    string_fermionic,
    string_lp,
    string_spinon,
    sum_side,
)


def oracle_partition_counts(d):
    # classic bounded-part DP, independent of the polynomial inverse
    counts = [1] + [0] * d
    for part in range(1, d + 1):
        for total in range(part, d + 1):
            counts[total] += counts[total - part]
    return counts


class TestDurfee:
    def test_low_degree_example(self):
        assert durfee_check(0, Truncation(3))
        assert render(euler_inverse_truncated(Truncation(3))) == "1 + q + 2*q^2 + 3*q^3"

    def test_degree_zero(self):
        assert durfee_check(0, Truncation(0))

    def test_grid(self):
        for ell in range(0, 4):
            assert durfee_check(ell, Truncation(25))

    def test_rejects_negative(self):
        with pytest.raises(InvalidParams):
            durfee_check(-1, Truncation(5))

    def test_euler_inverse_is_partition_series(self):
        d = 30
        counts = oracle_partition_counts(d)
        poly = euler_inverse_truncated(Truncation(d))
        assert [poly.coeff(k) for k in range(d + 1)] == counts


def box_shell_oracle(cd, offset, cap):
    """The full-box scan: every eta in 0..isqrt(cap N)+1 per coordinate, then filtered."""
    if cd.rank == 0:
        return {(): Fraction(0)} if Fraction(offset).denominator == 1 else {}
    side = math.isqrt(int(cap * cd.n)) + 1
    found = {}
    for eta in itertools.product(range(side + 1), repeat=cd.rank):
        form = cd.qform(eta)
        if form <= cap and (offset + cd.cinv_component(eta, 0)).denominator == 1:
            found[eta] = form
    return found


class TestEtaShell:
    @pytest.mark.parametrize("N", range(1, 7))
    @pytest.mark.parametrize("cap", [0, 4, 7, Fraction(11, 2), Fraction(20, 3)])
    def test_pruned_scan_matches_box(self, N, cap):
        cd = cartan(N)
        for a in range(4):  # offsets a/(2N): even and odd numerators
            offset = Fraction(a, 2 * N)
            got = dict(_eta_shell(cd, offset, cap))
            assert got == box_shell_oracle(cd, offset, cap), (N, cap, offset)

    def test_rejects_negative_inverse_entry(self):
        cd = CartanData(3, "a", 2, ((2, -1), (-1, 2)), ((0, 1), (1, 0)), ((2, -1), (-1, 2)), 3)
        with pytest.raises(InvalidParams):
            list(_eta_shell(cd, Fraction(0), 5))


class TestConjugatePairs:
    @pytest.mark.parametrize("M", [3, 5, None])
    @pytest.mark.parametrize("N,ell,sigma", [
        (1, 0, 0), (1, 1, 1), (1, 2, 0),
        (2, 0, 0), (2, 1, 1), (2, 2, 0), (2, 0, 1),
        (3, 0, 0), (3, 1, 1), (3, 2, 0),
    ])
    def test_relation(self, N, ell, sigma, M):
        assert conjugate_pair_check(BaileyPairQuery(N, ell, M, sigma, Truncation(20)))

    def test_spec_points(self):
        assert conjugate_pair_check(BaileyPairQuery(1, 0, 3, 0, Truncation(20)))
        assert conjugate_pair_check(BaileyPairQuery(2, 0, 4, 0, Truncation(20)))

    def test_n1_closed_forms(self):
        # rank 0 collapses both members to explicit factorial quotients
        from qident.series import _gamma_delta

        trunc = Truncation(16)
        M, ell = 4, 2
        gammas, deltas = _gamma_delta(BaileyPairQuery(1, ell, M, 0, trunc))
        for L in gammas:
            if L > M:
                assert gammas[L].is_zero() and deltas[L].is_zero()
                continue
            base = invert_truncated(qpoch(1, M - L), trunc)
            g = mul(base, invert_truncated(qpoch(ell + 1, M + L), trunc), trunc)
            assert truncated_equal(gammas[L], g.times_monomial(1, L * (L + ell)), trunc)
            assert truncated_equal(deltas[L], base.times_monomial(1, L * (L + ell)), trunc)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            conjugate_pair_check(BaileyPairQuery(0, 0, 3, 0, Truncation(5)))
        with pytest.raises(InvalidParams):
            conjugate_pair_check(BaileyPairQuery(1, -1, 3, 0, Truncation(5)))
        with pytest.raises(InvalidParams):
            conjugate_pair_check(BaileyPairQuery(1, 0, -2, 0, Truncation(5)))
        with pytest.raises(InvalidParams):
            conjugate_pair_check(BaileyPairQuery(1, 0, 3, 2, Truncation(5)))


class TestLimLM:
    def test_spec_points(self):
        assert limlm_check(2, 0, 0, Truncation(20))
        assert limlm_check(3, 1, 1, Truncation(15))

    def test_n1_reduces_to_durfee_shape(self):
        assert limlm_check(1, 0, 0, Truncation(20))
        assert limlm_check(1, 2, 0, Truncation(20))

    def test_grid(self):
        for N in (1, 2, 3):
            for sigma in (0, 1):
                for ell in range(0, 5):
                    if (ell + sigma * N) % 2:
                        continue
                    assert limlm_check(N, ell, sigma, Truncation(12)), (N, ell, sigma)

    def test_high_rank_points(self):
        # N=7 at D=25 took about two minutes with the unpruned eta-shell scan
        assert limlm_check(7, 0, 0, Truncation(25))
        assert limlm_check(6, 2, 0, Truncation(30))

    def test_parity_precondition(self):
        with pytest.raises(InvalidParams):
            limlm_check(2, 1, 0, Truncation(10))
        with pytest.raises(InvalidParams):
            limlm_check(3, 0, 1, Truncation(10))


class TestStrings:
    def test_lp_level_one(self):
        got = string_lp(StringFunctionQuery(1, 0, 0, 0, Truncation(6)))
        want = euler_inverse_truncated(Truncation(6)).times_monomial(
            1, Fraction(1, 12) - Fraction(1, 8)
        )
        assert got == mul(want, ONE, Truncation(6))
        assert render(got).startswith("q^(-1/24) + q^(23/24)")

    def test_spinon_equals_fermionic(self):
        for N in (1, 2, 3):
            for ell in range(0, N + 1):
                for m in range(ell % 2, 7, 2):
                    sq = StringFunctionQuery(N, m, ell, 0, Truncation(12))
                    assert string_spinon(sq) == string_fermionic(sq), (N, ell, m)

    def test_lp_matches_spinon_on_boundary(self):
        for N in (1, 2, 3):
            for sigma in (0, 1):
                ell = sigma * N
                for m in range(ell % 2, 6, 2):
                    sq = StringFunctionQuery(N, m, ell, sigma, Truncation(12))
                    assert string_lp(sq) == string_spinon(sq), (N, sigma, m)

    def test_even_in_m(self):
        for (N, ell, m) in [(2, 0, 2), (2, 1, 3), (3, 2, 4)]:
            plus = string_fermionic(StringFunctionQuery(N, m, ell, 0, Truncation(10)))
            minus = string_fermionic(StringFunctionQuery(N, -m, ell, 0, Truncation(10)))
            assert plus == minus

    def test_tight_cap_returns_zero(self):
        # minimal exponent 13/40 exceeds a zero cap
        sq = StringFunctionQuery(3, 0, 2, 0, Truncation(0))
        assert string_spinon(sq).is_zero()
        assert string_fermionic(sq).is_zero()

    def test_spinon_cutoff_checks_itself(self, monkeypatch):
        # N=1, m=ell=0, D=4: the i-sum stops after i=2 (L=4) and then checks
        # i=3..5 (L=6..10); a configuration sum there inside the cap must raise
        sq = StringFunctionQuery(1, 0, 0, 0, Truncation(4))
        real = series.abf_config_sum
        monkeypatch.setattr(series, "abf_config_sum", lambda p, s, L: ONE if L >= 6 else real(p, s, L))
        with pytest.raises(StabilizationFailure):
            string_spinon(sq)
        # past the checked margin the same fake goes unseen
        monkeypatch.setattr(series, "abf_config_sum", lambda p, s, L: ONE if L >= 12 else real(p, s, L))
        assert string_spinon(sq) == string_fermionic(sq)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            string_spinon(StringFunctionQuery(2, 0, 3, 0, Truncation(5)))
        with pytest.raises(InvalidParams):
            string_spinon(StringFunctionQuery(2, 1, 0, 0, Truncation(5)))
        with pytest.raises(InvalidParams):
            string_lp(StringFunctionQuery(2, 0, 2, 0, Truncation(5)))


class TestProducts:
    def test_rr_examples(self):
        assert render(product_side("rr", Truncation(4))) == "1 + q + q^2 + q^3 + 2*q^4"
        assert render(product_side("rr", Truncation(0))) == "1"

    def test_ising_low_degree(self):
        assert product_side("ising", Truncation(8)) == sum_side("ising", Truncation(8))

    @pytest.mark.parametrize("which", ["ising", "rr", "slater"])
    def test_sum_equals_product(self, which):
        assert product_side(which, Truncation(20)) == sum_side(which, Truncation(20))

    def test_unknown_family(self):
        with pytest.raises(InvalidParams):
            product_side("cats", Truncation(4))
        with pytest.raises(InvalidParams):
            sum_side("cats", Truncation(4))


class TestRefinement:
    # computing at a higher cap and truncating down must reproduce the
    # lower-cap result exactly; a True verdict never flips when D grows
    @pytest.mark.parametrize("which", ["ising", "rr", "slater"])
    def test_products_refine(self, which):
        low, high = Truncation(9), Truncation(17)
        assert mul(product_side(which, high), ONE, low) == product_side(which, low)
        assert mul(sum_side(which, high), ONE, low) == sum_side(which, low)

    def test_strings_refine(self):
        low, high = Truncation(8), Truncation(15)
        for sq_args in [(2, 1, 1), (3, 2, 2), (1, 1, 1)]:
            N, m, ell = sq_args
            hi = string_fermionic(StringFunctionQuery(N, m, ell, 0, high))
            lo = string_fermionic(StringFunctionQuery(N, m, ell, 0, low))
            assert mul(hi, ONE, low) == lo
            hi = string_spinon(StringFunctionQuery(N, m, ell, 0, high))
            lo = string_spinon(StringFunctionQuery(N, m, ell, 0, low))
            assert mul(hi, ONE, low) == lo

    @given(d=st.integers(min_value=0, max_value=24))
    @settings(max_examples=25, deadline=None)
    def test_verdicts_monotone(self, d):
        assert durfee_check(1, Truncation(d))
        assert limlm_check(2, 0, 0, Truncation(d))
