"""Exception types shared across the package.

Each error marks a distinct contract violation; none of them is ever used
for flow control on valid inputs.
"""

from __future__ import annotations


class QIdentError(Exception):
    """Base class for all package-specific errors."""


class NonExactDivision(QIdentError):
    """Polynomial division left a remainder or a non-integer coefficient."""


class NonUnitConstantTerm(QIdentError):
    """Series inversion needs a constant term of +1 or -1."""


class NonPolynomial(QIdentError):
    """Operation requires nonnegative integer exponents."""


class InvalidParams(QIdentError):
    """Parameter set violates the stated integrality or range constraints."""


class UnbalancedParameters(QIdentError):
    """Summation parameters fail the required balance condition."""


class SufficiencyViolated(QIdentError):
    """Transform applied where its sufficiency predicate does not hold."""


class UnknownClosedForm(QIdentError):
    """No closed form is registered for the requested node label."""


class StabilizationFailure(QIdentError):
    """Limit evaluation did not stabilize within the search cap."""
