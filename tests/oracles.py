"""Test oracles that share no code path with the package."""

from qident.errors import QIdentError
from qident.qpoly import QPoly


class NonExactDivision(QIdentError):
    """Polynomial division left a remainder or a non-integer coefficient."""


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
