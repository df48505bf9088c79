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

from qident import multinom, series
from qident.errors import InvalidParams, StabilizationFailure
from qident.lattice import CartanData, cartan, shell
from qident.qpoly import (
    ONE,
    Truncation,
    euler_inverse_truncated,
    mul,
    qpoch,
    render,
    truncated_equal,
)
from qident.series import (
    BaileyPairQuery,
    StringFunctionQuery,
    conjugate_pair_failure,
    durfee_sides,
    limlm_sides,
    product_side,
    string_fermionic,
    string_lp,
    string_spinon,
    sum_side,
)

from oracles import invert_truncated


def durfee_holds(ell, trunc):
    return truncated_equal(*durfee_sides(ell, trunc), trunc)


def limlm_holds(N, ell, sigma, trunc):
    return truncated_equal(*limlm_sides(N, ell, sigma, trunc), trunc)


def oracle_partition_counts(d):
    # classic bounded-part DP, independent of the polynomial inverse
    counts = [1] + [0] * d
    for part in range(1, d + 1):
        for total in range(part, d + 1):
            counts[total] += counts[total - part]
    return counts


class TestDurfee:
    def test_low_degree_example(self):
        assert durfee_holds(0, Truncation(3))
        assert render(euler_inverse_truncated(Truncation(3))) == "1 + q + 2*q^2 + 3*q^3"

    def test_degree_zero(self):
        assert durfee_holds(0, Truncation(0))

    def test_grid(self):
        for ell in range(0, 4):
            assert durfee_holds(ell, Truncation(25))

    def test_rejects_negative(self):
        with pytest.raises(InvalidParams):
            durfee_holds(-1, Truncation(5))

    def test_euler_inverse_is_partition_series(self):
        d = 30
        counts = oracle_partition_counts(d)
        poly = euler_inverse_truncated(Truncation(d))
        assert [poly.coeff(k) for k in range(d + 1)] == counts


def box_shell_oracle(cd, offset, cap):
    """The full-box scan: every eta in 0..isqrt(cap N)+1 per coordinate, then filtered.

    offset is t in t/(2N) + (Cinv eta)_1 in Z; forms are numerators over cinv_den.
    """
    shift = Fraction(offset, 2 * cd.n)
    if cd.rank == 0:
        return {(): 0} if shift.denominator == 1 else {}
    side = math.isqrt(int(cap * cd.n)) + 1
    found = {}
    for eta in itertools.product(range(side + 1), repeat=cd.rank):
        form = cd.qform(eta)
        first = Fraction(cd.cinv_component(eta, 0), cd.cinv_den)
        if Fraction(form, cd.cinv_den) <= cap and (shift + first).denominator == 1:
            found[eta] = form
    return found


class TestEtaShell:
    """lattice.shell under a cap alone, the walk the restricted eta-sums use."""

    @pytest.mark.parametrize("N", range(1, 7))
    @pytest.mark.parametrize("cap", [0, 4, 7, Fraction(11, 2), Fraction(20, 3)])
    def test_pruned_scan_matches_box(self, N, cap):
        cd = cartan(N)
        for a in range(4):  # offsets a/(2N): even and odd numerators
            got = dict(shell(cd, a, cap=cap))
            assert got == box_shell_oracle(cd, a, cap), (N, cap, a)

    def test_rejects_negative_inverse_entry(self):
        cd = CartanData(3, 2, ((2, -1), (-1, 2)), 3)
        with pytest.raises(InvalidParams):
            list(shell(cd, 0, cap=5))


class TestKeptEtaSums:
    """The restricted eta-sums are kept per process on (cd, offset mod 2N, trunc)."""

    @pytest.mark.parametrize("N", range(1, 5))
    def test_offset_counts_mod_2n(self, N):
        cd, two_n, trunc = cartan(N), 2 * N, Truncation(6)
        uncached = series._inverse_sum_cached.__wrapped__
        for offset in range(two_n):
            kept = series._restricted_inverse_sum(cd, offset, trunc)
            for moved in (offset - 2 * two_n, offset - two_n, offset + two_n, offset + 2 * two_n):
                assert series._restricted_inverse_sum(cd, moved, trunc) == kept, (offset, moved)
                assert uncached(cd, moved, trunc) == kept, (offset, moved)

    def test_truncations_never_share_an_entry(self):
        cd, kept = cartan(3), series._inverse_sum_cached
        kept.cache_clear()
        low = series._restricted_inverse_sum(cd, 0, Truncation(3))
        high = series._restricted_inverse_sum(cd, 0, Truncation(5))
        assert kept.cache_info().currsize == 2
        assert low != high and low == high.truncate(Truncation(3))


class TestConjugatePairs:
    @pytest.mark.parametrize("M", [3, 5, None])
    @pytest.mark.parametrize("N,ell,sigma", [
        (1, 0, 0), (1, 1, 1), (1, 2, 0),
        (2, 0, 0), (2, 1, 1), (2, 2, 0), (2, 0, 1),
        (3, 0, 0), (3, 1, 1), (3, 2, 0),
    ])
    def test_relation(self, N, ell, sigma, M):
        assert conjugate_pair_failure(BaileyPairQuery(N, ell, M, sigma, Truncation(20))) is None

    def test_spec_points(self):
        assert conjugate_pair_failure(BaileyPairQuery(1, 0, 3, 0, Truncation(20))) is None
        assert conjugate_pair_failure(BaileyPairQuery(2, 0, 4, 0, Truncation(20))) is None

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
            conjugate_pair_failure(BaileyPairQuery(0, 0, 3, 0, Truncation(5)))
        with pytest.raises(InvalidParams):
            conjugate_pair_failure(BaileyPairQuery(1, -1, 3, 0, Truncation(5)))
        with pytest.raises(InvalidParams):
            conjugate_pair_failure(BaileyPairQuery(1, 0, -2, 0, Truncation(5)))
        with pytest.raises(InvalidParams):
            conjugate_pair_failure(BaileyPairQuery(1, 0, 3, 2, Truncation(5)))


class TestLimLM:
    def test_spec_points(self):
        assert limlm_holds(2, 0, 0, Truncation(20))
        assert limlm_holds(3, 1, 1, Truncation(15))

    def test_n1_reduces_to_durfee_shape(self):
        assert limlm_holds(1, 0, 0, Truncation(20))
        assert limlm_holds(1, 2, 0, Truncation(20))

    def test_grid(self):
        for N in (1, 2, 3):
            for sigma in (0, 1):
                for ell in range(0, 5):
                    if (ell + sigma * N) % 2:
                        continue
                    assert limlm_holds(N, ell, sigma, Truncation(12)), (N, ell, sigma)

    def test_high_rank_points(self):
        # N=7 at D=25 took about two minutes with the unpruned eta-shell scan
        assert limlm_holds(7, 0, 0, Truncation(25))
        assert limlm_holds(6, 2, 0, Truncation(30))

    def test_parity_precondition(self):
        with pytest.raises(InvalidParams):
            limlm_holds(2, 1, 0, Truncation(10))
        with pytest.raises(InvalidParams):
            limlm_holds(3, 0, 1, Truncation(10))


class TestStrings:
    def test_lp_level_one(self):
        got = string_lp(StringFunctionQuery(1, 0, 0, 0, Truncation(6)))
        want = euler_inverse_truncated(Truncation(6)).times_monomial(1, -1, 24)  # q^(1/12 - 1/8)
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
        real = multinom.abf_config_sum
        monkeypatch.setattr(multinom, "abf_config_sum", lambda p, s, L, cap=None: ONE if L >= 6 else real(p, s, L, cap))
        with pytest.raises(StabilizationFailure):
            string_spinon(sq)
        # past the checked margin the same fake goes unseen
        monkeypatch.setattr(multinom, "abf_config_sum", lambda p, s, L, cap=None: ONE if L >= 12 else real(p, s, L, cap))
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
        assert durfee_holds(1, Truncation(d))
        assert limlm_holds(2, 0, 0, Truncation(d))
