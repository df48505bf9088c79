"""Truncated q-series verification: Bailey pairs, string functions, products.

Everything here compares formal power series modulo q^(D+1) for a caller
supplied degree cap D.  Infinite sums are cut off by lower bounds on the
degree of their terms: quadratic prefactors for the i-sums, the positive
definite quadratic form for the eta-sums.  The spinon sum has no proven
bound: its per-term minimum degree tracks i(i+m)/N + (l^2 - m^2)/(4N) to
within 3/2 on all probed grids, so it stops at a slack of 2 past the cap
and then checks itself, raising unless the configuration sums of the next
few i have no term at or below the cap.

An M of None means the unbounded version of a display: binomial factors
degenerate to inverse factorials and 1/(q)_{M-L} to 1/(q)_inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from .errors import InvalidParams, StabilizationFailure
from .lattice import axis_source, cartan, system_sum
from .multinom import abf_config_sum
from .qpoly import (
    ONE,
    ZERO,
    QPoly,
    Truncation,
    euler_inverse_truncated,
    inv_qpoch,
    invert_truncated,
    mul,
    prod,
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


def _eta_shell(cd, offset: Fraction, cap) -> Iterator[Tuple[Tuple[int, ...], Fraction]]:
    """(eta, eta Cinv eta) for eta >= 0 with restricted first component and form <= cap.

    Depth first, carrying the integer numerator of the prefix form.  Cinv >= 0
    (both Cartan families are nonsingular M-matrices; guarded below) makes a
    prefix's form a lower bound on every completion's, growing with the last
    value, so each loop stops at the first value past the cap (Fincke-Pohst).
    """
    rank = cd.rank
    off = Fraction(offset)
    if rank == 0:
        if off.denominator == 1:
            yield (), Fraction(0)
        return
    num, den = cd.cinv_num, cd.cinv_den
    if any(x < 0 for row in num for x in row) or any(num[i][i] <= 0 for i in range(rank)):
        raise InvalidParams("eta-shell pruning needs Cinv >= 0 with a positive diagonal")
    limit = math.floor(cap * den)
    mod = off.denominator * den
    vec = [0] * rank

    def rec(pos: int, form: int) -> Iterator[Tuple[Tuple[int, ...], Fraction]]:
        if pos == rank:
            dot1 = sum(r * x for r, x in zip(num[0], vec))
            if (off.numerator * den + off.denominator * dot1) % mod == 0:
                yield tuple(vec), Fraction(form, den)
            return
        row = num[pos]
        diag, cross = row[pos], 2 * sum(row[j] * vec[j] for j in range(pos))
        x, grown = 0, form
        while grown <= limit:
            vec[pos] = x
            yield from rec(pos + 1, grown)
            x += 1
            grown = form + x * (x * diag + cross)
        vec[pos] = 0

    yield from rec(0, 0)


def _restricted_inverse_sum(cd, offset: Fraction, trunc: Truncation) -> QPoly:
    # sum over the shell of q^(eta Cinv eta) / (q)_eta
    total = ZERO
    for eta, form in _eta_shell(cd, offset, trunc.degree_cap):
        term = prod((inv_qpoch(1, e, trunc) for e in eta), trunc)
        total = total + term.times_monomial(1, form)
    return mul(total, ONE, trunc)


def durfee_sides(ell: int, trunc: Truncation) -> Tuple[QPoly, QPoly]:
    """Durfee rectangle dissection of the partition generating series."""
    if ell < 0:
        raise InvalidParams("ell must be >= 0")
    d = trunc.degree_cap
    lhs = ZERO
    i = 0
    while i * (i + ell) <= d:
        term = mul(inv_qpoch(1, i, trunc), inv_qpoch(1, i + ell, trunc), trunc)
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
    if bq.M is None:
        # 1/(q)_inf and 1/(q^{ell+1})_inf: inv_qpoch drops the factors above the cap
        euler = euler_inverse_truncated(trunc)
        unbounded_base = mul(euler, inv_qpoch(bq.ell + 1, math.floor(d), trunc), trunc)
    L = 0
    while Fraction(L * (L + bq.ell), bq.N) <= d:
        pref = Fraction(L * (L + bq.ell), bq.N)
        offset = Fraction(2 * L + bq.ell + bq.sigma * bq.N, 2 * bq.N)
        inner_delta = system_sum(cd, axis_source(cd.rank, [(1, 2 * L + bq.ell)]), offset)
        if bq.M is None:
            gamma = mul(unbounded_base, _restricted_inverse_sum(cd, offset, trunc), trunc)
            delta = mul(euler, inner_delta, trunc)
        elif L > bq.M:
            gamma = ZERO
            delta = ZERO
        else:
            v = axis_source(cd.rank, [(1, bq.M + L + bq.ell), (cd.rank, bq.M - L)])
            inv_short = inv_qpoch(1, bq.M - L, trunc)
            gamma_base = mul(inv_short, inv_qpoch(bq.ell + 1, bq.M + L, trunc), trunc)
            gamma = mul(gamma_base, system_sum(cd, v, offset), trunc)
            delta = mul(inv_short, inner_delta, trunc)
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
            term = mul(delta, inv_qpoch(1, r - L, trunc), trunc)
            term = mul(term, inv_qpoch(bq.ell + 1, r + L, trunc), trunc)
            rhs = rhs + term
        if not truncated_equal(gamma, rhs, trunc):
            return L, gamma, mul(rhs, ONE, trunc)
    return None


def conjugate_pair_check(bq: BaileyPairQuery) -> bool:
    return conjugate_pair_failure(bq) is None


def limlm_sides(N: int, ell: int, sigma: int, trunc: Truncation) -> Tuple[QPoly, QPoly]:
    """Unbounded double-sum form against its single restricted eta-sum."""
    BaileyPairQuery(N, ell, None, sigma, trunc).validate()
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
            term = mul(inv_qpoch(1, i, trunc), inv_qpoch(1, i + ell, trunc), trunc)
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
    return None if room < 0 else Truncation(room)


def string_spinon(sq: StringFunctionQuery) -> QPoly:
    """Level-N string function via configuration sums of the ABF model."""
    sq.validate()
    N, m, ell = sq.N, sq.m, sq.ell
    pre_exp = Fraction((ell + 1) ** 2, 4 * (N + 2)) - Fraction(m * m, 4 * N) - Fraction(1, 8)
    inner_trunc = _series_budget(sq.trunc, pre_exp)
    if inner_trunc is None:
        return ZERO
    d = inner_trunc.degree_cap
    total = ZERO
    i = 0
    while Fraction(i * (i + m), N) + Fraction(ell * ell - m * m, 4 * N) <= d + 2:
        X = abf_config_sum(N + 2, ell + 1, 2 * i + m)
        if not X.is_zero():
            term = mul(inv_qpoch(1, i, inner_trunc), inv_qpoch(1, i + m, inner_trunc), inner_trunc)
            total = total + mul(term, X, inner_trunc)
        i += 1
    # check three more i: the 1/(q)_i factors have nonnegative exponents only,
    # so an i-term vanishes below the cap exactly when its configuration sum does
    for i in range(i, i + 3):
        X = abf_config_sum(N + 2, ell + 1, 2 * i + m)
        if not X.is_zero() and X.min_exponent() <= d:
            low = X.min_exponent()
            raise StabilizationFailure(f"spinon cutoff too early: i={i} reaches q^{low} <= q^{d}")
    return mul(total, ONE, inner_trunc).times_monomial(1, pre_exp)


def string_fermionic(sq: StringFunctionQuery) -> QPoly:
    """Level-N string function as a restricted quadratic-form double sum."""
    sq.validate()
    N, m, ell = sq.N, sq.m, sq.ell
    pre_exp = Fraction((ell + 1) ** 2, 4 * (N + 2)) - Fraction(ell * ell, 4 * N) - Fraction(1, 8)
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
            term = mul(inv_qpoch(1, i, inner_trunc), inv_qpoch(1, i + m, inner_trunc), inner_trunc)
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

    def factors(triples) -> QPoly:
        out = ONE
        for mod, res, sign in triples:
            e = mod - res if res else mod
            while e <= d:
                out = mul(out, QPoly({0: 1, e: sign}), trunc)
                e += mod
        return out

    return mul(factors(plus + minus_num), invert_truncated(factors(minus_den), trunc), trunc)


def sum_side(which: str, trunc: Truncation) -> QPoly:
    """Fermionic companion of product_side, same normalization and cap."""
    d = trunc.degree_cap
    total = ZERO
    if which == "ising":
        k = 0
        while 2 * k * k <= d:
            total = total + inv_qpoch(1, 2 * k, trunc).times_monomial(1, 2 * k * k)
            k += 1
    elif which == "rr":
        n = 0
        while n * n <= d:
            total = total + inv_qpoch(1, n, trunc).times_monomial(1, n * n)
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
