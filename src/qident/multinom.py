"""Generalized q-multinomial coefficients and their decompositions.

T_n^{(N)}(L, a) is a finite sum over lattice vectors eta >= 0 subject to
a congruence restriction; each term is the q-multinomial coefficient
(q)_L / ((q)_k1 (q)_k2 prod_j (q)_eta_j) times q^(eta Cinv eta), shifted by
q^(-(Cinv eta)_n) for n > 0.  With k1 = L/2 - a/N - (Cinv eta)_1 and Cinv
of the A family, whose first and last rows sum to all ones, the blocks obey
k1 + k2 + |eta| = L.  So k1 is one integer numerator over 2 N cinv_den, the
restriction is its integrality, k2 follows by subtraction, and the term is
the product of memoized binomials [L over k1] [L-k1 over k2] ... with no
division.  a enters as the integer 2a throughout.  By the same identity
k2 = L/2 + a/N - (Cinv eta)_{N-1}, so k1, k2 >= 0 are row bounds for the walk.

The decomposition rewrites the n = 0 coefficient as a quadratic-exponent
double sum over restricted (m, n)-systems, and a companion difference
identity covers 0 < n < N-1.  Both are checked term-exactly.  The
classical limit q -> 1 is the ordinary multinomial coefficient, computed
independently by convolution for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import Checked, InvalidParams, NonPolynomial
from .lattice import CartanData, axis_source, cartan, i_sum, shell
from .qbinom import qbin, qbin_vector
from .qpoly import ZERO, QPoly, eval_at_one, half_int, mul, norm_rat, twice

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class MultinomialQuery(Checked):
    N: int
    L: int
    a: Rational
    n_index: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", norm_rat(self.a))

    def violation(self) -> Optional[str]:
        if self.N < 1:
            return "N must be >= 1"
        if self.L < 0:
            return "L must be >= 0"
        if 2 % self.a.denominator:
            return "a must be a half-integer"
        two_a = 2 * self.a.numerator // self.a.denominator
        if abs(two_a) > self.N * self.L:
            return "2a must lie in [-NL, NL]"
        if (two_a - self.N * self.L) % 2:
            return "2a must have the parity of NL"
        if not 0 <= self.n_index < self.N:
            return "n_index must lie in [0, N-1]"
        return None


def _t_sum(cd: CartanData, L: int, two_a: int, n_index: int) -> QPoly:
    """Defining eta-sum at a = two_a/2 for A-family data cd; out-of-range a yields zero."""
    n, den = cd.n, cd.cinv_den
    if n * L < abs(two_a):
        return ZERO
    base = (n * L - two_a) * den  # (L/2 - a/N) over 2 N cinv_den
    k1_top, k2_top = base // (2 * n), (n * L + two_a) * den // (2 * n)  # k1, k2 >= 0: rows 1, N-1
    bounds = (k1_top, *[None] * (cd.rank - 2), k2_top) if cd.rank > 1 else (min(k1_top, k2_top),)
    total = ZERO
    for eta, exp in shell(cd, two_a - n * L, bounds):  # the offset makes k1 integral
        first = cd.cinv_component(eta, 0) if eta else 0
        k1 = (base - 2 * n * first) // (2 * n * den)
        k2 = L - sum(eta) - k1
        pairs, rest = [], L
        for part in (k1, k2, *eta):
            pairs.append((part, rest - part))
            rest -= part
        if n_index:
            exp -= cd.cinv_component(eta, n_index - 1)
        total = total + qbin_vector(pairs).times_monomial(1, exp, den)
    return total


def t_multinomial(query: MultinomialQuery) -> QPoly:
    """T_n^{(N)}(L, a), after validating the query."""
    query.validate()
    return _t_sum(cartan(query.N), query.L, twice(query.a, "a"), query.n_index)


def classical_multinomial(N: int, L: int, a: Rational) -> int:
    """Coefficient of x^(a + NL/2) in (1 + x + ... + x^N)^L, after validating
    MultinomialQuery(N, L, a)."""
    MultinomialQuery(N, L, a).validate()
    coeffs = [1]
    for _ in range(L):
        nxt = [0] * (len(coeffs) + N)
        for i, c in enumerate(coeffs):
            for k in range(N + 1):
                nxt[i + k] += c
        coeffs = nxt
    return coeffs[(twice(norm_rat(a), "a") + N * L) // 2]


def classical_limit(poly: QPoly) -> int:
    """Value at q = 1 after factoring out the global fractional shift.

    Every exponent of a T sum lies in f + Z>=0 for a single fractional part f;
    that structure is asserted here rather than assumed, then the shifted
    polynomial is evaluated at 1.
    """
    if poly.is_zero():
        return 0
    shifts = {Fraction(e) - math.floor(e) for e, _ in poly.items()}
    if len(shifts) != 1:
        raise NonPolynomial("exponents do not share one fractional part")
    shift = shifts.pop()
    if shift:
        poly = poly.times_monomial(1, -shift.numerator, shift.denominator)
    return eval_at_one(poly)


def tnew_rhs(N: int, L: int, ell: int, sigma: int) -> QPoly:
    """Quadratic-exponent rewriting of T_0^{(N)}(L, ell/2), after validating
    MultinomialQuery(N, L, ell/2)."""
    if sigma not in (0, 1) or (sigma - L) % 2:
        raise InvalidParams("sigma must be 0 or 1 with sigma = L mod 2")
    MultinomialQuery(N, L, Fraction(ell, 2)).validate()

    def weight(i, m):
        m1 = m[0] if m else 0
        top1 = half_int(L + ell + m1, "binomial entry")
        top2 = half_int(L - ell + m1, "binomial entry")
        return mul(qbin(top1, i + ell), qbin(top2, i))

    # a nonzero term needs 2i <= L - ell + m1 and m1 <= ((2i+ell)(N-1)+n)/N; the
    # offset N L + 2i + ell is L/2 + (2i+ell)/(2N) over 2N
    return i_sum(cartan(N), ell, N * L, range(max(0, (N * L - ell) // 2) + 1), weight)


def difference_sides(N: int, L: int, ell: int, n_index: int) -> Tuple[QPoly, QPoly]:
    """T_n(L,(n-l)/2) - q^{(l+1)/N} T_n(L,(n+l+2)/2) against its double sum.

    Only the subtracted combination is an identity; the individual halves
    differ, which a test exercises separately.
    """
    if not 1 <= n_index < N - 1:
        raise InvalidParams("n_index must satisfy 1 <= n_index < N-1")
    if L < 0:
        raise InvalidParams("L must be >= 0")
    cd = cartan(N)
    if (n_index - ell - N * L) % 2:
        raise InvalidParams("n_index - ell must have the parity of NL")
    lhs = _t_sum(cd, L, n_index - ell, n_index)
    lhs = lhs - _t_sum(cd, L, n_index + ell + 2, n_index).times_monomial(1, ell + 1, N)
    source_idx = N - n_index

    def weight(i, m):
        m1 = m[0] if m else 0
        t0, t1, t2, t3 = (half_int(L + k + m1, "binomial entry")
                          for k in (ell, -ell, ell + 2, -ell - 2))
        return mul(qbin(t0, i + ell), qbin(t1, i)) - mul(qbin(t2, i + ell + 1), qbin(t3, i - 1))

    # the offset N L + 2i + ell - n is L/2 + (2i+ell-n)/(2N) over 2N
    rhs = i_sum(cd, ell, N * L - n_index, range(max(0, (N * L - ell + n_index) // 2) + 1), weight,
                extra=((source_idx, 1),), shift=axis_source(cd.rank, [(source_idx, 1)]))
    return lhs, rhs


def abf_config_sum(p: int, s: int, L: int, cap: Optional[int] = None) -> QPoly:
    """Bilateral configuration sum of the (p-1)-state height model, regime I.

    Binomial entries with fractional bottoms vanish, which settles all
    parity bookkeeping; the j-window comes from 0 <= bottom <= L.  An int cap
    keeps degrees <= cap only, exactly: a j whose shift j(pj+s) is past it is
    skipped, and a binomial, of nonnegative degrees, is built only to cap - shift.
    """
    if p < 2:
        raise InvalidParams("p must be >= 2")
    if L < 0:
        raise InvalidParams("L must be >= 0")
    total = ZERO
    for delta in (1, -1):
        num = L - s + delta  # bottom = num/2 - pj
        lo = -(-(num - 2 * L) // (2 * p))
        hi = num // (2 * p)
        for j in range(lo, hi + 1):
            if (num - 2 * p * j) % 2:
                continue
            bot, shift = (num - 2 * p * j) // 2, j * (p * j + s)
            if cap is not None and shift > cap:
                continue
            t = qbin(L, bot, None if cap is None else cap - shift)
            if t.is_zero():
                continue
            total = total + t.times_monomial(delta, shift)
    return total
