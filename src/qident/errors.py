"""Exception types shared across the package.

Each error marks a distinct contract violation; none of them is ever used
for flow control on valid inputs.
"""

from __future__ import annotations

from typing import Optional


class QIdentError(Exception):
    """Base class for all package-specific errors."""


class NonPolynomial(QIdentError):
    """Operation requires nonnegative integer exponents."""


class InvalidParams(QIdentError):
    """Parameter set violates the stated integrality or range constraints."""


class Checked:
    """A parameter record whose constraints are listed once, in violation().

    violation() returns the first violated constraint as a message, or None;
    validate() raises it.  A caller that only asks whether a point lies in the
    domain reads violation() and never catches an exception.
    """

    def violation(self) -> Optional[str]:
        raise NotImplementedError

    def validate(self) -> None:
        problem = self.violation()
        if problem is not None:
            raise InvalidParams(problem)


class UnbalancedParameters(QIdentError):
    """Summation parameters fail the required balance condition."""


class UnknownClosedForm(QIdentError):
    """No closed form is registered for the requested node label."""


class StabilizationFailure(QIdentError):
    """Limit evaluation did not stabilize within the search cap."""
