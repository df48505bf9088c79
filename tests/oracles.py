"""Test oracles that share no code path with the package."""

import math
from fractions import Fraction

from qident.errors import NonPolynomial, QIdentError
from qident.qpoly import QPoly


class NonExactDivision(QIdentError):
    """Polynomial division left a remainder or a non-integer coefficient."""


class NonUnitConstantTerm(QIdentError):
    """Series inversion needs a constant term of +1 or -1."""


def invert_truncated(p: QPoly, trunc) -> QPoly:
    """1/p modulo trunc's degree cap, by the coefficient recurrence
    r_n = -c0 * sum_{k >= 1} p_k r_{n-k} on the grid of p's exponents, where
    c0 = p_0 = 1/p_0 must be +1 or -1 and no exponent may be negative."""
    terms = {Fraction(e): c for e, c in p.items()}
    c0 = terms.pop(0, 0)
    if c0 not in (1, -1):
        raise NonUnitConstantTerm("constant term must be +1 or -1")
    if any(e < 0 for e in terms):
        raise NonPolynomial("inverse requires nonnegative exponents")
    den = math.lcm(*(e.denominator for e in terms))
    steps = {int(e * den): c for e, c in terms.items()}
    r = [c0]
    for n in range(1, math.floor(Fraction(trunc.degree_cap) * den) + 1):
        r.append(-c0 * sum(c * r[n - k] for k, c in steps.items() if k <= n))
    return QPoly({Fraction(n, den): c for n, c in enumerate(r) if c})


def exact_div(num: QPoly, den: QPoly) -> QPoly:
    """Exact quotient num/den in the Laurent ring, by long division from the
    lowest term; raises NonExactDivision if it is not exact."""
    if den.is_zero():
        raise NonExactDivision("division by the zero polynomial")
    if num.is_zero():
        return num
    td = dict(den.items())
    low = min(td)
    # exact quotient exponents lie in [min(num)-min(den), max(num)-max(den)]
    bound = num.max_exponent() - den.max_exponent()
    rem = dict(num.items())
    quot = {}
    while rem:
        e = min(rem)
        qe = e - low
        if qe > bound:
            raise NonExactDivision("nonzero remainder")
        qc, leftover = divmod(rem[e], td[low])
        if leftover:
            raise NonExactDivision("coefficient not divisible")
        quot[qe] = qc
        for ed, cd in td.items():
            k = qe + ed
            v = rem.get(k, 0) - qc * cd
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return QPoly(quot)
