"""Gaussian binomial coefficients, in two analytic continuations.

The standard binomial [m+n over m] vanishes unless both m and n are
nonnegative; it is the generating function of partitions in an m x n box.
The modified binomial keeps the product definition (q^{n+1}; q)_m / (q; q)_m
for every integer n, which stays a polynomial for n >= 0, vanishes for
n < 0 <= m+n, and becomes a Laurent polynomial when m+n < 0:

    (-1)^m q^(m(2n+m+1)/2) [ -n-1 over m ].

Both are exposed in (m, n) form and in [top over bottom] form, and
qbin_vector multiplies standard binomials, the product each admissible
(m, n)-system contributes.  Standard binomials are memoized under the
(min, max) symmetric key; the uncached path is reachable for equivalence
testing via _qbin_symmetric.__wrapped__.
A new binomial is built on one dense coefficient list, two linear passes
per factor of its product formula; one cut at a degree is built only that
far, and not kept.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Tuple

from .qpoly import ONE, ZERO, QPoly, from_dense, mul


def _qbin_dense(lo: int, hi: int, deg: int) -> QPoly:
    # [lo+hi over lo] = prod_{k=1..lo} (1-q^{hi+k})/(1-q^k).  The partial
    # product up to k is [hi+k over k], a polynomial of degree k*hi <= lo*hi,
    # so each step is exact on the first k*hi+1 coefficients of one list:
    # times 1-q^{hi+k} descending, then divided by 1-q^k as a running sum.
    # Both passes read only lower degrees, so a list cut at deg stays exact.
    c = [1] + [0] * deg
    for k in range(1, lo + 1):
        top, s = min(k * hi, deg), hi + k
        for e in range(top, s - 1, -1):
            c[e] -= c[e - s]
        for e in range(k, top + 1):
            c[e] += c[e - k]
    return from_dense(c)


@lru_cache(maxsize=None)
def _qbin_symmetric(lo: int, hi: int) -> QPoly:
    return _qbin_dense(lo, hi, lo * hi)


def qbin_standard(m: int, n: int, deg: Optional[int] = None) -> QPoly:
    """[m+n over m], zero unless m >= 0 and n >= 0; cut to degrees <= deg if one is given."""
    if m < 0 or n < 0 or deg is not None and deg < 0:
        return ZERO
    lo, hi = min(m, n), max(m, n)
    return _qbin_symmetric(lo, hi) if deg is None or deg >= lo * hi else _qbin_dense(lo, hi, deg)


def qbin(top: int, bottom: int, deg: Optional[int] = None) -> QPoly:
    """Standard [top over bottom], cut to degrees <= deg if one is given."""
    return qbin_standard(bottom, top - bottom, deg)


def qbin_modified(m: int, n: int) -> QPoly:
    """(q^{n+1}; q)_m / (q; q)_m for any integer n; zero for m < 0."""
    if m < 0:
        return ZERO
    if n >= 0:
        return qbin_standard(m, n)
    if m + n >= 0:
        return ZERO
    base = qbin(-n - 1, m)
    return base.times_monomial((-1) ** m, (m * (2 * n + m + 1)) // 2)


def qbin_mod_tb(top: int, bottom: int) -> QPoly:
    """Modified [top over bottom]."""
    return qbin_modified(bottom, top - bottom)


def qbin_vector(pairs: Iterable[Tuple[int, int]]) -> QPoly:
    """prod over (m_j, n_j) of [m_j + n_j over m_j]; empty input gives 1."""
    out = ONE
    for mj, nj in pairs:
        factor = qbin_standard(mj, nj)
        if factor.is_zero():
            return ZERO
        out = mul(out, factor)
    return out
