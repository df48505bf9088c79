"""Polynomial Saalschutz-type summations and the Sears transform.

Four families live here.  qs2 is the classical two-binomial summation
with its known exceptional region, qcv the Chu-Vandermonde corollary,
sears the balanced transformation evaluated with modified binomials over
exactly derived bilateral windows, and gensum the lattice generalization
whose inner sums run over admissible (m,n)- and (mu,eta)-systems.

All gensum binomials are standard.  Binomial top entries of the form
L + m1/2 are built as integers over 2 and checked for integrality: the
parameter constraints make a fractional top impossible, so hitting one
raises InvalidParams rather than silently dropping a term.  Exponents are
integer numerators over N, lattice offsets numerators over 2N.
qs2 and qcv sum only their live terms, i from max(0, -ell) to min(L2, L1 - ell)
(and to M for qs2, zero outright when L1 + L2 < 0): any other has a zero binomial.
qs2's left side is one packed sum of products per point (qpoly.dot).

qs2 and gensum are sums over i of outer(M, i) * inner(i), with inner(i) free
of M.  Their sweeps walk M and the later axes inside a prefix of the earlier
ones, (L1, L2) for qs2 and (N, sigma, ell) for gensum, so each keeps its inner
sums for the current prefix only: on the default grids three in four are
reused, and none is needed again once the prefix moves on, so the memo is
bounded by the grid's own reuse window with no size to tune.  The gensum right
side, sum over mu_1 of b1(L1, mu_1) H(L2, mu_1), keeps its L1-free class sums
H the same way, per 2 L2 under the prefix (N, sigma, ell, M).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Tuple, Union

from .errors import Checked, UnbalancedParameters
from .lattice import axis_source, cartan, class_terms, i_term
from .qbinom import qbin, qbin_mod_tb
from .qpoly import ZERO, QPoly, dot, half_int, mul, norm_rat, twice

Rational = Union[int, Fraction]


class ClassicParams(NamedTuple):  # a tuple: cheap to build once per sweep point
    L1: int
    L2: int
    M: int
    ell: int


@dataclass(frozen=True)
class SaalschutzParams(Checked):
    N: int
    sigma: int
    ell: int
    M: int
    L1: Rational
    L2: Rational

    def __post_init__(self) -> None:
        object.__setattr__(self, "L1", norm_rat(self.L1))
        object.__setattr__(self, "L2", norm_rat(self.L2))

    def violation(self) -> Optional[str]:
        if self.N < 1:
            return "N must be >= 1"
        if self.sigma not in (0, 1):
            return "sigma must be 0 or 1"
        if (self.ell + self.sigma * self.N) % 2:
            return "ell + sigma*N must be even"
        for name, L in (("L1", self.L1), ("L2", self.L2)):
            if L.numerator < 0:
                return f"{name} must be >= 0"
            if 2 % L.denominator or (2 * L.numerator // L.denominator + self.ell + self.sigma) % 2:
                return f"{name} + (ell+sigma)/2 must be an integer"
        return None


# --- inner-sum memos -----------------------------------------------------------

# prefix -> {rest of the key: inner sum}, one prefix at a time; an inner sum
# that raises is never stored, so its point raises again
_QS2_INNER: Dict[Tuple, Dict[Tuple, QPoly]] = {}  # (L1, L2) -> {(ell, i): ...}
_GENSUM_INNER: Dict[Tuple, Dict[Tuple, QPoly]] = {}  # (N, sigma, ell) -> {(i, 2 L1, 2 L2): ...}
_GENSUM_RHS: Dict[Tuple, Dict[int, Dict]] = {}  # (N, sigma, ell, M) -> {2 L2: {mu_1: H}}


def _scope(memo: Dict[Tuple, Dict], prefix: Tuple) -> Dict:
    """The memo's values under prefix; any other prefix's values are dropped first."""
    values = memo.get(prefix)
    if values is None:
        memo.clear()
        values = memo[prefix] = {}
    return values


# --- classical summation ----------------------------------------------------

def qs2_lhs(p: ClassicParams) -> QPoly:
    if p.L1 + p.L2 < 0:  # every outer [L1+L2+M-i over M-i] vanishes
        return ZERO
    inner = _scope(_QS2_INNER, (p.L1, p.L2))
    pairs = []
    # outside i+ell in 0..L1 and i in 0..L2 an inner binomial vanishes; to M no outer one does
    for i in range(max(0, -p.ell), min(p.M, p.L2, p.L1 - p.ell) + 1):
        term = inner.get((p.ell, i))
        if term is None:
            term = inner[p.ell, i] = _qs2_inner(p.L1, p.L2, p.ell, i)
        pairs.append((qbin(p.L1 + p.L2 + p.M - i, p.M - i), term))
    return dot(pairs)


def _qs2_inner(L1: int, L2: int, ell: int, i: int) -> QPoly:
    """The M-free part q^{i(i+ell)} [L1 over i+ell] [L2 over i] of the i-th qs2 term."""
    return mul(qbin(L1, i + ell), qbin(L2, i)).times_monomial(1, i * (i + ell))


def qs2_rhs(p: ClassicParams) -> QPoly:
    return mul(qbin(p.L1 + p.M, p.M + p.ell), qbin(p.L2 + p.M + p.ell, p.M))


def qs2_exceptional(p: ClassicParams) -> bool:
    first = -p.L1 <= -p.ell <= p.L2 < 0 <= p.M
    second = -p.L2 <= p.ell <= p.L1 < 0 <= p.M + p.ell
    return first or second


def qcv_lhs(p: ClassicParams) -> QPoly:
    total = ZERO
    # outside i+ell in 0..L1 and i in 0..L2 a binomial of the term vanishes
    for i in range(max(0, -p.ell), min(p.L2, p.L1 - p.ell) + 1):
        total = total + _qs2_inner(p.L1, p.L2, p.ell, i)
    return total


def qcv_rhs(p: ClassicParams) -> QPoly:
    return qbin(p.L1 + p.L2, p.L1 - p.ell)


def qcv_exceptional(p: ClassicParams) -> bool:
    """M-free caveat: the column sum vanishes while the closed form may not."""
    first = -p.L1 <= -p.ell <= p.L2 < 0
    second = -p.L2 <= p.ell <= p.L1 < 0
    return first or second


# --- Sears transform ---------------------------------------------------------

def _check_balance(a: int, b: int, c: int, d: int, e: int, f: int, g: int) -> None:
    if a + b != c + d + f:
        raise UnbalancedParameters(f"a+b must equal c+d+f, got {a + b} != {c + d + f}")


def sears_lhs(a: int, b: int, c: int, d: int, e: int, f: int, g: int) -> QPoly:
    """sum_i q^{i(i-a+e+g)} [i+a, a][b-i, c-i][d, i+e][f, i+g], modified."""
    _check_balance(a, b, c, d, e, f, g)
    total = ZERO
    # the bottom entries a (fixed), c-i, i+e, i+g must all be >= 0
    if a < 0:
        return total
    for i in range(max(-e, -g), c + 1):
        term = qbin_mod_tb(i + a, a)
        if term.is_zero():
            continue
        for top, bottom in ((b - i, c - i), (d, i + e), (f, i + g)):
            term = mul(term, qbin_mod_tb(top, bottom))
            if term.is_zero():
                break
        else:
            total = total + term.times_monomial(1, i * (i - a + e + g))
    return total


def sears_rhs(a: int, b: int, c: int, d: int, e: int, f: int, g: int) -> QPoly:
    """sum_i q^{i(i-a+e+g)} [a-g, a-g-i][b-d+e, c-i][c+d-i, c+e][i+f, i+g]."""
    _check_balance(a, b, c, d, e, f, g)
    total = ZERO
    if c + e < 0:
        return total
    for i in range(-g, min(a - g, c) + 1):
        term = qbin_mod_tb(a - g, a - g - i)
        if term.is_zero():
            continue
        for top, bottom in ((b - d + e, c - i), (c + d - i, c + e), (i + f, i + g)):
            term = mul(term, qbin_mod_tb(top, bottom))
            if term.is_zero():
                break
        else:
            total = total + term.times_monomial(1, i * (i - a + e + g))
    return total


# --- lattice generalization ----------------------------------------------------

def gensum_lhs(p: SaalschutzParams, checked: bool = False) -> QPoly:
    """The lattice sum; checked=True skips the validation of a point already validated."""
    if not checked:
        p.validate()
    two_l1, two_l2 = twice(p.L1, "L1"), twice(p.L2, "L2")
    l12 = half_int(two_l1 + two_l2, "binomial entry")
    inner = _scope(_GENSUM_INNER, (p.N, p.sigma, p.ell))
    total = ZERO
    for i in range(0, p.M + 1):
        outer = qbin(l12 + p.M - i, p.M - i)
        if outer.is_zero():
            continue
        term = inner.get((i, two_l1, two_l2))
        if term is None:
            term = inner[i, two_l1, two_l2] = _gensum_inner(p.N, p.sigma, p.ell, i, two_l1, two_l2)
        if not term.is_zero():
            total = total + mul(outer, term)
    return total


def _gensum_inner(N: int, sigma: int, ell: int, i: int, two_l1: int, two_l2: int) -> QPoly:
    """q^(i(i+ell)/N) times the M-free (m,n)-system sum of the i-th gensum term, at 2 L1, 2 L2."""

    def weight(i, m):
        m1 = m[0] if m else 0
        b1 = qbin(half_int(two_l1 + m1, "binomial entry"), i + ell)
        if b1.is_zero():
            return b1
        return mul(b1, qbin(half_int(two_l2 + m1, "binomial entry"), i))

    return i_term(cartan(N), i, ell, sigma * N, weight)


def gensum_rhs(p: SaalschutzParams, checked: bool = False) -> QPoly:
    """The (mu,eta)-system side; checked=True skips the validation of a point already validated."""
    if not checked:
        p.validate()
    two_l1, two_l2 = twice(p.L1, "L1"), twice(p.L2, "L2")
    memo = _scope(_GENSUM_RHS, (p.N, p.sigma, p.ell, p.M))
    if two_l2 not in memo:  # mu_1 -> H, stored only once it is whole
        cd, top2 = cartan(p.N), two_l2 + p.M + p.ell  # twice the top of b2, less mu_last
        v = axis_source(cd.rank, [(1, p.M + p.ell), (cd.rank, p.M)])
        parts: Dict[int, QPoly] = {}  # rank-0 convention: mu_1 = M, mu_last = M + ell
        for key, term in class_terms(cd, v, p.ell + p.sigma * p.N, lambda m: qbin(
                half_int(top2 + (m[1] if m else p.M + p.ell), "binomial entry"), p.M)):
            mu_first = key[0] if key else p.M
            parts[mu_first] = parts.get(mu_first, ZERO) + term
        memo[two_l2] = parts
    total = ZERO
    for mu_first, part in memo[two_l2].items():
        b1 = qbin(half_int(two_l1 + p.M + mu_first, "binomial entry"), p.M + p.ell)
        if not b1.is_zero():
            total = total + mul(b1, part)
    return total
