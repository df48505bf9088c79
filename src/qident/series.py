"""Truncated q-series verification: Bailey pairs, string functions, products.

Everything here compares formal power series modulo q^(D+1) for a caller
supplied degree cap D.  Infinite sums are cut off by lower bounds on the
degree of their terms: quadratic prefactors for the i-sums, the positive
definite quadratic form for the eta-sums (lattice.shell walks the eta under
the cap).  The spinon sum has no proven bound: its per-term minimum degree
falls below i(i+m)/N + (l^2 - m^2)/(4N) by a gap that grows with N (1 at N = 2,
2 at N = 4, 3.43 at N = 7, 6 at N = 12), so its fixed slack of 2 past the cap
falls short from N = 5 on.  It checks itself: it raises unless the
configuration sums of the next few i have no term at or below the cap.

An M of None means the unbounded version of a display: binomial factors
degenerate to inverse factorials and 1/(q)_{M-L} to 1/(q)_inf.

Kept per process: the weight-free lattice sums (lattice.plain_sum), and the
restricted eta-sums on (cd, offset mod 2N, trunc), all of the offset that the
walk's restriction reads.  Configuration sums are built only up to the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, takewhile
from typing import Dict, Optional, Tuple

from . import multinom  # lazily loaded: only the spinon sum runs it
from .errors import Checked, InvalidParams, StabilizationFailure
from .lattice import axis_source, cartan, i_sum, plain_sum, shell
from .qpoly import (
    ONE,
    ZERO,
    QPoly,
    Truncation,
    dot,
    euler_inverse_truncated,
    inv_qpoch,
    mul,
    prod,
    series_product,
    truncated_equal,
)


@dataclass(frozen=True)
class BaileyPairQuery(Checked):
    N: int
    ell: int
    M: Optional[int]
    sigma: int
    trunc: Truncation

    def violation(self) -> Optional[str]:
        if self.N < 1:
            return "N must be >= 1"
        if self.ell < 0:
            return "ell must be >= 0"
        if self.M is not None and self.M < 0:
            return "M must be >= 0 or None for unbounded"
        if self.sigma not in (0, 1):
            return "sigma must be 0 or 1"
        return None


@dataclass(frozen=True)
class StringFunctionQuery(Checked):
    N: int
    m: int
    ell: int
    sigma: int
    trunc: Truncation

    def violation(self) -> Optional[str]:
        if self.N < 1:
            return "N must be >= 1"
        if not 0 <= self.ell <= self.N:
            return "ell must lie in [0, N]"
        if (self.m - self.ell) % 2:
            return "m must have the parity of ell"
        if self.sigma not in (0, 1):
            return "sigma must be 0 or 1"
        return None


def _restricted_inverse_sum(cd, offset: int, trunc: Truncation) -> QPoly:
    # sum over the shell of q^(eta Cinv eta) / (q)_eta; the walk reads offset mod 2N only
    return _inverse_sum_cached(cd, offset % (2 * cd.n), trunc)


@lru_cache(maxsize=None)
def _inverse_sum_cached(cd, residue: int, trunc: Truncation) -> QPoly:
    total = ZERO
    for eta, form in shell(cd, residue, cap=trunc.degree_cap):
        term = prod((inv_qpoch(1, e, trunc) for e in eta), trunc)
        total = total + term.times_monomial(1, form, cd.cinv_den)
    return total.truncate(trunc)


def durfee_sides(ell: int, trunc: Truncation) -> Tuple[QPoly, QPoly]:
    """Durfee rectangle dissection of the partition generating series."""
    if ell < 0:
        raise InvalidParams("ell must be >= 0")
    reach = takewhile(lambda i: i * (i + ell) <= trunc.degree_cap, count())
    lhs = dot(((inv_qpoch(1, i, trunc), inv_qpoch(1, i + ell, trunc).times_monomial(1, i * (i + ell)))
               for i in reach), trunc)
    return lhs, euler_inverse_truncated(trunc)


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
        offset = 2 * L + bq.ell + bq.sigma * bq.N
        inner_delta = plain_sum(cd, axis_source(cd.rank, [(1, 2 * L + bq.ell)]), offset)
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
            gamma = mul(gamma_base, plain_sum(cd, v, offset), trunc)
            delta = mul(inv_short, inner_delta, trunc)
        gammas[L] = gamma.times_monomial(1, L * (L + bq.ell), bq.N)
        deltas[L] = delta.times_monomial(1, L * (L + bq.ell), bq.N)
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
        reach = (r for r in deltas if L <= r and (bq.M is None or r <= bq.M))
        rhs = dot(((mul(deltas[r], inv_qpoch(1, r - L, trunc), trunc), inv_qpoch(bq.ell + 1, r + L, trunc))
                   for r in reach), trunc)
        if not truncated_equal(gamma, rhs, trunc):
            return L, gamma, rhs.truncate(trunc)
    return None


def limlm_sides(N: int, ell: int, sigma: int, trunc: Truncation) -> Tuple[QPoly, QPoly]:
    """Unbounded double-sum form against its single restricted eta-sum."""
    BaileyPairQuery(N, ell, None, sigma, trunc).validate()
    if (ell + sigma * N) % 2:
        raise InvalidParams("ell + sigma*N must be even")
    cd = cartan(N)
    d = trunc.degree_cap
    lhs = i_sum(cd, ell, sigma * N, takewhile(lambda i: Fraction(i * (i + ell), N) <= d, count()),
                outer=lambda i: mul(inv_qpoch(1, i, trunc), inv_qpoch(1, i + ell, trunc), trunc),
                trunc=trunc)
    rhs = mul(
        euler_inverse_truncated(trunc),
        _restricted_inverse_sum(cd, ell + sigma * N, trunc),
        trunc,
    )
    return lhs, rhs


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
        X = multinom.abf_config_sum(N + 2, ell + 1, 2 * i + m, math.floor(d))
        if not X.is_zero():
            term = mul(inv_qpoch(1, i, inner_trunc), inv_qpoch(1, i + m, inner_trunc), inner_trunc)
            total = total + mul(term, X, inner_trunc)
        i += 1
    # check three more i: the 1/(q)_i factors have nonnegative exponents only,
    # so an i-term vanishes below the cap exactly when its configuration sum does
    for i in range(i, i + 3):
        X = multinom.abf_config_sum(N + 2, ell + 1, 2 * i + m, math.floor(d))
        if not X.is_zero() and X.min_exponent() <= d:
            low = X.min_exponent()
            raise StabilizationFailure(f"spinon cutoff too early: i={i} reaches q^{low} <= q^{d}")
    return total.truncate(inner_trunc).times_monomial(1, pre_exp.numerator, pre_exp.denominator)


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
    in_reach = takewhile(lambda i: Fraction(i * (i + m), N) <= d or i <= abs(m), count())
    total = i_sum(cd, m, ell, in_reach, outer=lambda i: mul(
        inv_qpoch(1, i, inner_trunc), inv_qpoch(1, i + m, inner_trunc), inner_trunc),
        extra=((ell, 1),), shift=shift, trunc=inner_trunc)
    return total.times_monomial(1, pre_exp.numerator, pre_exp.denominator)


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
        _restricted_inverse_sum(cd, m + sq.sigma * N, inner_trunc),
        inner_trunc,
    )
    return body.times_monomial(1, pre_exp.numerator, pre_exp.denominator)


# family -> factors (modulus, residue, c, power): (1 + c q^e)^power for every e >= 1
# congruent to the residue
_PRODUCTS = {
    "ising": [(8, 3, 1, 1), (8, 5, 1, 1), (8, 0, -1, 1), (2, 0, -1, -1)],
    "rr": [(5, 1, -1, -1), (5, 4, -1, -1)],
    "slater": [(8, 1, -1, -1), (8, 4, -1, -1), (8, 7, -1, -1)],
}

# family -> (factors (a, b, c, power): (1 + c q^(a n + b))^power takes term n-1 to
# term n, from term 0 = 1; term n is kept at q^(n^2/den) when stride divides n)
_SUMS = {
    "ising": ([(1, 0, -1, -1)], 2, 2),
    "rr": ([(1, 0, -1, -1)], 1, 1),
    "slater": ([(2, -1, 1, 1), (2, 0, -1, -1)], 1, 1),
}


def product_side(which: str, trunc: Truncation) -> QPoly:
    """Classical product: Ising vacuum character, first Rogers-Ramanujan,
    or the Slater / Goellnitz-Gordon product, modulo the cap."""
    if which not in _PRODUCTS:
        raise InvalidParams(f"unknown product family: {which!r}")
    d = math.floor(trunc.degree_cap)
    return series_product(((e, c, power) for mod, res, c, power in _PRODUCTS[which]
                           for e in range(res or mod, d + 1, mod)), trunc)


def sum_side(which: str, trunc: Truncation) -> QPoly:
    """Fermionic companion of product_side, same normalization and cap; term n
    is needed only to degree D - n^2/den, so each step cuts its list there and
    no term reaches past the cap."""
    if which not in _SUMS:
        raise InvalidParams(f"unknown product family: {which!r}")
    steps, den, stride = _SUMS[which]
    total, term, n = ONE, ONE, 1
    while Fraction(n * n, den) <= trunc.degree_cap:
        room = Truncation(trunc.degree_cap - Fraction(n * n, den))
        term = series_product([(a * n + b, c, power) for a, b, c, power in steps], room, term)
        if n % stride == 0:
            total = total + term.times_monomial(1, n * n, den)
        n += 1
    return total
