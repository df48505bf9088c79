"""Truncated q-series verification: Bailey pairs, string functions, products.

Everything here compares formal power series modulo q^(D+1) for a caller
supplied degree cap D.  Infinite sums are cut off by proven or probed
lower bounds on the degree of their terms: quadratic prefactors for the
i-sums, the positive definite quadratic form for the eta-sums.  The one
empirical margin is in the spinon sum, where the per-term minimum degree
tracks i(i+m)/N + (l^2 - m^2)/(4N) to within 3/2 on all probed grids; a
slack of 2 is used, and the refinement property test guards it.

An M of None means the unbounded version of a display: binomial factors
degenerate to inverse factorials and 1/(q)_{M-L} to 1/(q)_inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from .errors import InvalidParams
from .lattice import axis_source, cartan, system_sum
from .multinom import abf_config_sum
from .qpoly import (
    ONE,
    ZERO,
    QPoly,
    Truncation,
    euler_inverse_truncated,
    invert_truncated,
    mul,
    qpoch,
    qpoch_signed_base2,
    truncated_equal,
)


@dataclass(frozen=True)
class BaileyPairQuery:
    N: int
    ell: int
    M: Optional[int]
    sigma: int
    trunc: Truncation

    def validate(self) -> None:
        if self.N < 1:
            raise InvalidParams("N must be >= 1")
        if self.ell < 0:
            raise InvalidParams("ell must be >= 0")
        if self.M is not None and self.M < 0:
            raise InvalidParams("M must be >= 0 or None for unbounded")
        if self.sigma not in (0, 1):
            raise InvalidParams("sigma must be 0 or 1")


@dataclass(frozen=True)
class StringFunctionQuery:
    N: int
    m: int
    ell: int
    sigma: int
    trunc: Truncation

    def validate(self) -> None:
        if self.N < 1:
            raise InvalidParams("N must be >= 1")
        if not 0 <= self.ell <= self.N:
            raise InvalidParams("ell must lie in [0, N]")
        if (self.m - self.ell) % 2:
            raise InvalidParams("m must have the parity of ell")
        if self.sigma not in (0, 1):
            raise InvalidParams("sigma must be 0 or 1")


def _inv_qpoch(k: int, trunc: Truncation) -> QPoly:
    if k < 0:
        return ZERO
    return invert_truncated(qpoch(1, k), trunc)


def _inv_shifted_euler(ell: int, trunc: Truncation) -> QPoly:
    # 1/(q^{ell+1}; q)_inf modulo the cap: factors beyond the cap are 1
    d = math.floor(trunc.degree_cap)
    return invert_truncated(qpoch(ell + 1, max(0, d - ell)), trunc)


def _eta_shell(cd, offset: Fraction, cap) -> Iterator[Tuple[int, ...]]:
    # eta >= 0 with restricted first component and quadratic form <= cap
    rank = cd.rank
    if rank == 0:
        if Fraction(offset).denominator == 1:
            yield ()
        return
    side = math.isqrt(int(cap * cd.n)) + 1
    vec = [0] * rank

    def rec(pos: int) -> Iterator[Tuple[int, ...]]:
        if pos == rank:
            if cd.qform(vec) <= cap and (offset + cd.cinv_component(vec, 0)).denominator == 1:
                yield tuple(vec)
            return
        for val in range(side + 1):
            vec[pos] = val
            yield from rec(pos + 1)
        vec[pos] = 0

    yield from rec(0)


def _restricted_inverse_sum(cd, offset: Fraction, trunc: Truncation) -> QPoly:
    # sum over the shell of q^(eta Cinv eta) / (q)_eta
    total = ZERO
    for eta in _eta_shell(cd, offset, trunc.degree_cap):
        term = ONE
        for e in eta:
            term = mul(term, _inv_qpoch(e, trunc), trunc)
        total = total + term.times_monomial(1, cd.qform(eta))
    return mul(total, ONE, trunc)


def durfee_sides(ell: int, trunc: Truncation) -> Tuple[QPoly, QPoly]:
    """Durfee rectangle dissection of the partition generating series."""
    if ell < 0:
        raise InvalidParams("ell must be >= 0")
    d = trunc.degree_cap
    lhs = ZERO
    i = 0
    while i * (i + ell) <= d:
        term = mul(_inv_qpoch(i, trunc), _inv_qpoch(i + ell, trunc), trunc)
        lhs = lhs + term.times_monomial(1, i * (i + ell))
        i += 1
    return lhs, euler_inverse_truncated(trunc)


def durfee_check(ell: int, trunc: Truncation) -> bool:
    lhs, rhs = durfee_sides(ell, trunc)
    return truncated_equal(lhs, rhs, trunc)


def _gamma_delta(bq: BaileyPairQuery) -> Tuple[Dict[int, QPoly], Dict[int, QPoly]]:
    cd = cartan(bq.N)
    trunc = bq.trunc
    d = trunc.degree_cap
    gammas: Dict[int, QPoly] = {}
    deltas: Dict[int, QPoly] = {}
    L = 0
    while Fraction(L * (L + bq.ell), bq.N) <= d:
        pref = Fraction(L * (L + bq.ell), bq.N)
        offset = Fraction(2 * L + bq.ell + bq.sigma * bq.N, 2 * bq.N)
        inner_delta = system_sum(cd, axis_source(cd.rank, [(1, 2 * L + bq.ell)]), offset)
        if bq.M is None:
            gamma_base = mul(
                euler_inverse_truncated(trunc), _inv_shifted_euler(bq.ell, trunc), trunc
            )
            eta_sum = _restricted_inverse_sum(cd, offset, trunc)
            gamma = mul(gamma_base, eta_sum, trunc)
            delta = mul(euler_inverse_truncated(trunc), inner_delta, trunc)
        elif L > bq.M:
            gamma = ZERO
            delta = ZERO
        else:
            v = axis_source(cd.rank, [(1, bq.M + L + bq.ell), (cd.rank, bq.M - L)])
            eta_sum = system_sum(cd, v, offset)
            gamma_base = mul(
                _inv_qpoch(bq.M - L, trunc),
                invert_truncated(qpoch(bq.ell + 1, bq.M + L), trunc),
                trunc,
            )
            gamma = mul(gamma_base, eta_sum, trunc)
            delta = mul(_inv_qpoch(bq.M - L, trunc), inner_delta, trunc)
        gammas[L] = mul(gamma, ONE, trunc).times_monomial(1, pref)
        deltas[L] = mul(delta, ONE, trunc).times_monomial(1, pref)
        L += 1
    return gammas, deltas


def conjugate_pair_failure(bq: BaileyPairQuery) -> Optional[Tuple[int, QPoly, QPoly]]:
    """First L where gamma_L != sum_{r >= L} delta_r / ((q)_{r-L} (q^{ell+1})_{r+L}).

    Both members vanish identically beyond L(L+ell)/N > D, so the finite
    L-range below is exhaustive.  None means every L agrees to the cap.
    """
    bq.validate()
    trunc = bq.trunc
    gammas, deltas = _gamma_delta(bq)
    for L, gamma in gammas.items():
        rhs = ZERO
        for r, delta in deltas.items():
            if r < L or (bq.M is not None and r > bq.M):
                continue
            term = mul(delta, _inv_qpoch(r - L, trunc), trunc)
            term = mul(term, invert_truncated(qpoch(bq.ell + 1, r + L), trunc), trunc)
            rhs = rhs + term
        if not truncated_equal(gamma, rhs, trunc):
            return L, gamma, mul(rhs, ONE, trunc)
    return None


def conjugate_pair_check(bq: BaileyPairQuery) -> bool:
    return conjugate_pair_failure(bq) is None


def limlm_sides(N: int, ell: int, sigma: int, trunc: Truncation) -> Tuple[QPoly, QPoly]:
    """Unbounded double-sum form against its single restricted eta-sum."""
    if N < 1:
        raise InvalidParams("N must be >= 1")
    if ell < 0:
        raise InvalidParams("ell must be >= 0")
    if sigma not in (0, 1):
        raise InvalidParams("sigma must be 0 or 1")
    if (ell + sigma * N) % 2:
        raise InvalidParams("ell + sigma*N must be even")
    cd = cartan(N)
    d = trunc.degree_cap
    lhs = ZERO
    i = 0
    while Fraction(i * (i + ell), N) <= d:
        inner = system_sum(
            cd,
            axis_source(cd.rank, [(1, 2 * i + ell)]),
            Fraction(2 * i + ell + sigma * N, 2 * N),
        )
        if not inner.is_zero():
            term = mul(_inv_qpoch(i, trunc), _inv_qpoch(i + ell, trunc), trunc)
            term = mul(term, inner, trunc)
            lhs = lhs + term.times_monomial(1, Fraction(i * (i + ell), N))
        i += 1
    lhs = mul(lhs, ONE, trunc)
    rhs = mul(
        euler_inverse_truncated(trunc),
        _restricted_inverse_sum(cd, Fraction(ell + sigma * N, 2 * N), trunc),
        trunc,
    )
    return lhs, rhs


def limlm_check(N: int, ell: int, sigma: int, trunc: Truncation) -> bool:
    lhs, rhs = limlm_sides(N, ell, sigma, trunc)
    return truncated_equal(lhs, rhs, trunc)


def _series_budget(trunc: Truncation, pre_exp: Fraction) -> Optional[Truncation]:
    room = Fraction(trunc.degree_cap) - pre_exp
    if room < 0:
        return None
    return Truncation(room)


def string_spinon(sq: StringFunctionQuery) -> QPoly:
    """Level-N string function via configuration sums of the ABF model."""
    sq.validate()
    N, m, ell = sq.N, sq.m, sq.ell
    pre_exp = (
        Fraction((ell + 1) ** 2, 4 * (N + 2)) - Fraction(m * m, 4 * N) - Fraction(1, 8)
    )
    inner_trunc = _series_budget(sq.trunc, pre_exp)
    if inner_trunc is None:
        return ZERO
    d = inner_trunc.degree_cap
    total = ZERO
    i = 0
    while Fraction(i * (i + m), N) + Fraction(ell * ell - m * m, 4 * N) <= d + 2:
        X = abf_config_sum(N + 2, ell + 1, 2 * i + m)
        if not X.is_zero():
            term = mul(_inv_qpoch(i, inner_trunc), _inv_qpoch(i + m, inner_trunc), inner_trunc)
            term = mul(term, X, inner_trunc)
            total = total + term
        i += 1
    return mul(total, ONE, inner_trunc).times_monomial(1, pre_exp)


def string_fermionic(sq: StringFunctionQuery) -> QPoly:
    """Level-N string function as a restricted quadratic-form double sum."""
    sq.validate()
    N, m, ell = sq.N, sq.m, sq.ell
    pre_exp = (
        Fraction((ell + 1) ** 2, 4 * (N + 2)) - Fraction(ell * ell, 4 * N) - Fraction(1, 8)
    )
    inner_trunc = _series_budget(sq.trunc, pre_exp)
    if inner_trunc is None:
        return ZERO
    d = inner_trunc.degree_cap
    cd = cartan(N)
    shift = axis_source(cd.rank, [(ell, 1)])  # zero unless 1 <= ell <= N-1
    total = ZERO
    i = 0
    while Fraction(i * (i + m), N) <= d or i <= abs(m):
        v = axis_source(cd.rank, [(1, 2 * i + m), (ell, 1)])
        inner = system_sum(cd, v, Fraction(2 * i + m + ell, 2 * N), shift=shift)
        if not inner.is_zero():
            term = mul(_inv_qpoch(i, inner_trunc), _inv_qpoch(i + m, inner_trunc), inner_trunc)
            term = mul(term, inner, inner_trunc)
            total = total + term.times_monomial(1, Fraction(i * (i + m), N))
        i += 1
    return mul(total, ONE, inner_trunc).times_monomial(1, pre_exp)


def string_lp(sq: StringFunctionQuery) -> QPoly:
    """Lepowsky-Primc form; only defined on the boundary ell = sigma*N."""
    sq.validate()
    N, m = sq.N, sq.m
    if sq.ell != sq.sigma * N:
        raise InvalidParams("the principal form needs ell = sigma*N")
    pre_exp = Fraction(1, 4 * (N + 2)) - Fraction(1, 8)
    inner_trunc = _series_budget(sq.trunc, pre_exp)
    if inner_trunc is None:
        return ZERO
    cd = cartan(N)
    body = mul(
        euler_inverse_truncated(inner_trunc),
        _restricted_inverse_sum(cd, Fraction(m + sq.sigma * N, 2 * N), inner_trunc),
        inner_trunc,
    )
    return body.times_monomial(1, pre_exp)


_PRODUCTS = {
    "ising": ([(8, 3, 1), (8, 5, 1)], [(8, 0, -1)], [(2, 0, -1)]),
    "rr": ([], [], [(5, 1, -1), (5, 4, -1)]),
    "slater": ([], [], [(8, 1, -1), (8, 4, -1), (8, 7, -1)]),
}


def product_side(which: str, trunc: Truncation) -> QPoly:
    """Classical product: Ising vacuum character, first Rogers-Ramanujan,
    or the Slater / Goellnitz-Gordon product, modulo the cap."""
    if which not in _PRODUCTS:
        raise InvalidParams(f"unknown product family: {which!r}")
    plus, minus_num, minus_den = _PRODUCTS[which]
    d = math.floor(trunc.degree_cap)
    num = ONE
    for mod, res, sign in plus + minus_num:
        e = mod - res if res else mod
        while e <= d:
            num = mul(num, QPoly({0: 1, e: sign}), trunc)
            e += mod
    den = ONE
    for mod, res, sign in minus_den:
        e = mod - res if res else mod
        while e <= d:
            den = mul(den, QPoly({0: 1, e: sign}), trunc)
            e += mod
    return mul(num, invert_truncated(den, trunc), trunc)


def sum_side(which: str, trunc: Truncation) -> QPoly:
    """Fermionic companion of product_side, same normalization and cap."""
    d = trunc.degree_cap
    total = ZERO
    if which == "ising":
        k = 0
        while 2 * k * k <= d:
            total = total + _inv_qpoch(2 * k, trunc).times_monomial(1, 2 * k * k)
            k += 1
    elif which == "rr":
        n = 0
        while n * n <= d:
            total = total + _inv_qpoch(n, trunc).times_monomial(1, n * n)
            n += 1
    elif which == "slater":
        n = 0
        while n * n <= d:
            even_block = ONE
            for k in range(1, n + 1):
                even_block = mul(even_block, QPoly({0: 1, 2 * k: -1}), trunc)
            term = mul(qpoch_signed_base2(n), invert_truncated(even_block, trunc), trunc)
            total = total + term.times_monomial(1, n * n)
            n += 1
    else:
        raise InvalidParams(f"unknown product family: {which!r}")
    return mul(total, ONE, trunc)
