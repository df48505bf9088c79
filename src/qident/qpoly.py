"""Exact sparse arithmetic for Laurent polynomials in q with rational exponents.

A polynomial is a finite sum  sum_e c_e * q^e  with nonzero integer
coefficients c_e and exact rational exponents e.  The representation is a
dict mapping exponent -> coefficient under two canonical rules: a zero
coefficient is never stored, and an exponent whose denominator is one is
stored as a plain int (Fraction otherwise).  Canonical form makes
structural equality of the dicts identical to mathematical equality of the
polynomials, which is what every identity check in this package relies on.

Truncation is inclusive: Truncation(D) keeps exactly the terms with
exponent <= D.  Every truncated operation equals the exact operation
followed by a final truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Iterator, Mapping, Tuple, Union

from .errors import InvalidParams, NonExactDivision, NonPolynomial, NonUnitConstantTerm

Exponent = Union[int, Fraction]
ExponentLike = Union[int, Fraction]


def _norm_exp(e: ExponentLike) -> Exponent:
    if isinstance(e, bool):
        raise TypeError("bool is not a valid exponent")
    if isinstance(e, int):
        return e
    if isinstance(e, Fraction):
        return e.numerator if e.denominator == 1 else e
    raise TypeError(f"exponent must be int or Fraction, got {type(e).__name__}")


def norm_rat(x) -> Exponent:
    """x as an exact rational: an int when integral, a Fraction otherwise."""
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def as_int(x, what: str) -> int:
    """x as an int; InvalidParams names `what` when x is not integral."""
    f = Fraction(x)
    if f.denominator != 1:
        raise InvalidParams(f"{what} must be an integer, got {x}")
    return f.numerator


class QPoly:
    """Sparse Laurent polynomial in q over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[ExponentLike, int], Iterable[Tuple[ExponentLike, int]], None] = None):
        data: Dict[Exponent, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for e, c in items:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise TypeError("coefficients must be int")
                if c == 0:
                    continue
                k = _norm_exp(e)
                v = data.get(k, 0) + c
                if v:
                    data[k] = v
                else:
                    del data[k]
        self._terms = data

    @classmethod
    def _from_raw(cls, data: Dict[Exponent, int]) -> "QPoly":
        # trusted constructor: keys normalized, no zero values
        p = object.__new__(cls)
        p._terms = data
        return p

    @classmethod
    def zero(cls) -> "QPoly":
        return cls._from_raw({})

    @classmethod
    def one(cls) -> "QPoly":
        return cls._from_raw({0: 1})

    @classmethod
    def monomial(cls, coeff: int, exp: ExponentLike = 0) -> "QPoly":
        if coeff == 0:
            return cls._from_raw({})
        return cls._from_raw({_norm_exp(exp): coeff})

    def items(self) -> Iterator[Tuple[Exponent, int]]:
        return iter(self._terms.items())

    def coeff(self, exp: ExponentLike) -> int:
        return self._terms.get(_norm_exp(exp), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def min_exponent(self) -> Exponent:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exponent(self) -> Exponent:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self._terms == other._terms
        if isinstance(other, int) and not isinstance(other, bool):
            if other == 0:
                return not self._terms
            return self._terms == {0: other}
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __neg__(self) -> "QPoly":
        return QPoly._from_raw({e: -c for e, c in self._terms.items()})

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a:
            return other
        if not b:
            return self
        out = dict(a)
        for e, c in b.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                del out[e]
        return QPoly._from_raw(out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            v = out.get(e, 0) - c
            if v:
                out[e] = v
            else:
                del out[e]
        return QPoly._from_raw(out)

    def __mul__(self, other: Union["QPoly", int]) -> "QPoly":
        if isinstance(other, QPoly):
            return mul(self, other)
        if isinstance(other, int) and not isinstance(other, bool):
            if other == 0:
                return QPoly.zero()
            return QPoly._from_raw({e: c * other for e, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def times_monomial(self, coeff: int, exp: ExponentLike) -> "QPoly":
        """Multiply by coeff * q^exp without a general convolution."""
        if coeff == 0:
            return QPoly.zero()
        k = _norm_exp(exp)
        if k == 0:
            return self * coeff
        # e + k can be integral even when both are proper fractions
        return QPoly._from_raw({_norm_exp(e + k): c * coeff for e, c in self._terms.items()})

    def truncate(self, trunc: "Truncation") -> "QPoly":
        cap = trunc.degree_cap
        return QPoly._from_raw({e: c for e, c in self._terms.items() if e <= cap})

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"QPoly({render(self)})"


@dataclass(frozen=True)
class Truncation:
    """Inclusive degree cap: keep terms with exponent <= degree_cap."""

    degree_cap: Exponent

    def __post_init__(self) -> None:
        cap = _norm_exp(self.degree_cap)
        if cap < 0:
            raise ValueError("degree cap must be >= 0")
        object.__setattr__(self, "degree_cap", cap)

    def keeps(self, exp: ExponentLike) -> bool:
        return _norm_exp(exp) <= self.degree_cap


def _renorm_keys(out: Dict[Exponent, int]) -> Dict[Exponent, int]:
    # two proper fractions can sum to an integer; the dict slot is already
    # shared (Fraction(1,1) hashes like 1) but the stored key must be an int
    bad = [e for e in out if type(e) is Fraction and e.denominator == 1]
    for e in bad:
        out[e.numerator] = out.pop(e)
    return out


def mul(a: QPoly, b: QPoly, trunc: Truncation | None = None) -> QPoly:
    """Exact convolution product; with trunc, terms above the cap are dropped."""
    ta, tb = a._terms, b._terms
    if not ta or not tb:
        return QPoly.zero()
    if len(ta) > len(tb):
        ta, tb = tb, ta
    if trunc is None:
        if len(ta) == 1:
            ((ea, ca),) = ta.items()
            return QPoly._from_raw(_renorm_keys({ea + eb: ca * cb for eb, cb in tb.items()}))
        out: Dict[Exponent, int] = {}
        get = out.get
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = ea + eb
                v = get(e, 0) + ca * cb
                if v:
                    out[e] = v
                else:
                    del out[e]
        return QPoly._from_raw(_renorm_keys(out))
    cap = trunc.degree_cap
    if len(ta) == 1:
        ((ea, ca),) = ta.items()
        return QPoly._from_raw(
            _renorm_keys({ea + eb: ca * cb for eb, cb in tb.items() if ea + eb <= cap})
        )
    out = {}
    get = out.get
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = ea + eb
            if e > cap:
                continue
            v = get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                del out[e]
    return QPoly._from_raw(_renorm_keys(out))


def prod(polys: Iterable[QPoly], trunc: Truncation | None = None) -> QPoly:
    """Product of several polynomials, smallest factors first."""
    factors = sorted(polys, key=len)
    result = QPoly.one()
    for f in factors:
        if not f:
            return QPoly.zero()
        result = mul(result, f, trunc)
    return result


def truncated_equal(a: QPoly, b: QPoly, trunc: Truncation) -> bool:
    """Compare exactly the terms with exponent <= degree cap."""
    return a.truncate(trunc)._terms == b.truncate(trunc)._terms


ZERO = QPoly.zero()
ONE = QPoly.one()


@lru_cache(maxsize=None)
def qpoch(s: int, m: int) -> QPoly:
    """Finite q-shifted factorial (q^s; q)_m = prod_{k=0}^{m-1} (1 - q^{s+k})."""
    if not isinstance(s, int) or not isinstance(m, int):
        raise TypeError("qpoch takes integer arguments")
    if m < 0:
        raise ValueError("qpoch length must be >= 0")
    if m == 0:
        return ONE
    if s <= 0 <= s + m - 1:
        return ZERO  # the factor 1 - q^0 appears
    result = mul(qpoch(s, m - 1), QPoly({0: 1, s + m - 1: -1}))
    return result


@lru_cache(maxsize=None)
def qpoch_signed_base2(n: int) -> QPoly:
    """(-q; q^2)_n = prod_{k=0}^{n-1} (1 + q^{2k+1})."""
    if n < 0:
        raise ValueError("qpoch_signed_base2 length must be >= 0")
    if n == 0:
        return ONE
    return mul(qpoch_signed_base2(n - 1), QPoly({0: 1, 2 * n - 1: 1}))


def exact_div(num: QPoly, den: QPoly) -> QPoly:
    """Exact quotient num/den in the Laurent ring; raises if not exact."""
    dt = den._terms
    if not dt:
        raise NonExactDivision("division by the zero polynomial")
    if not num._terms:
        return ZERO
    den_min = min(dt)
    den_min_coeff = dt[den_min]
    # exact quotient exponents lie in [min(num)-min(den), max(num)-max(den)]
    bound = num.max_exponent() - max(dt)
    rem = dict(num._terms)
    quot: Dict[Exponent, int] = {}
    while rem:
        e = min(rem)
        qe = e - den_min
        if qe > bound:
            raise NonExactDivision("nonzero remainder")
        qc, leftover = divmod(rem[e], den_min_coeff)
        if leftover:
            raise NonExactDivision("coefficient not divisible")
        if isinstance(qe, Fraction) and qe.denominator == 1:
            qe = qe.numerator
        quot[qe] = qc
        for ed, cd in dt.items():
            k = qe + ed
            v = rem.get(k, 0) - qc * cd
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return QPoly._from_raw(quot)


def invert_truncated(p: QPoly, trunc: Truncation) -> QPoly:
    """Multiplicative inverse of p modulo the truncation.

    p must have only nonnegative exponents and a unit (+1 or -1) constant
    term; the result r satisfies truncate(p*r) == 1.
    """
    terms = p._terms
    c0 = terms.get(0, 0)
    if c0 not in (1, -1):
        raise NonUnitConstantTerm("constant term must be +1 or -1")
    cap = trunc.degree_cap
    tail: Dict[Exponent, int] = {}
    eps: Exponent | None = None
    for e, c in terms.items():
        if e == 0:
            continue
        if e < 0:
            raise NonPolynomial("inverse requires nonnegative exponents")
        if e <= cap:
            tail[e] = -c * c0  # t = 1 - p/c0
            if eps is None or e < eps:
                eps = e
    if not tail:
        return QPoly.monomial(c0)
    t = QPoly._from_raw(tail)
    # geometric series 1 + t + t^2 + ... via Horner; t^k vanishes below the
    # cap once k*eps > cap
    steps = int(Fraction(cap) / Fraction(eps)) + 1
    r = ONE
    for _ in range(steps):
        r = mul(t, r, trunc) + ONE
    if c0 == -1:
        r = -r
    return r


@lru_cache(maxsize=None)
def _euler_inverse_int(d: int) -> QPoly:
    return invert_truncated(qpoch(1, d).truncate(Truncation(d)), Truncation(d))


def euler_inverse_truncated(trunc: Truncation) -> QPoly:
    """Generating series of all partitions, 1/(q; q)_inf, up to the cap."""
    cap = trunc.degree_cap
    d = cap if isinstance(cap, int) else int(cap)
    return _euler_inverse_int(d)


def eval_at_one(p: QPoly) -> int:
    """Coefficient sum; defined only for true polynomials in q."""
    total = 0
    for e, c in p._terms.items():
        if not isinstance(e, int) or e < 0:
            raise NonPolynomial("eval_at_one requires nonnegative integer exponents")
        total += c
    return total


def _render_term(e: Exponent, c: int) -> str:
    mag = abs(c)
    if e == 0:
        return str(mag)
    if e == 1:
        power = "q"
    elif isinstance(e, int):
        power = f"q^{e}"
    else:
        power = f"q^({e})"
    return power if mag == 1 else f"{mag}*{power}"


def render(p: QPoly) -> str:
    """Canonical text form: ascending exponents, signed joining."""
    if not p._terms:
        return "0"
    parts = []
    for e in sorted(p._terms):
        c = p._terms[e]
        body = _render_term(e, c)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)
