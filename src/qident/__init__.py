"""Exact-arithmetic verification engine for polynomial q-series identities.

Everything is integer or Fraction arithmetic end to end; a reported equality
is a theorem about the truncated coefficients, not a float coincidence.  The
usual entry points:

    qpoly       sparse Laurent-style polynomials in q with rational exponents
    qbinom      Gaussian binomials and q-multinomial coefficients
    saalschutz  terminating balanced summations and their exceptional windows
    lattice     admissible-configuration enumeration behind the fermionic sums
    burge       partition-pair transforms, their tree, and closed forms
    multinom    refined multinomial sums, classical limits, differences
    series      bounded/unbounded pair constructions and string functions
    cli         `qident` command line: verify / eval / tree / suite
"""

from .errors import (
    InvalidParams,
    NonExactDivision,
    NonPolynomial,
    QIdentError,
    SufficiencyViolated,
    UnbalancedParameters,
    UnknownClosedForm,
)
from .qpoly import ONE, ZERO, QPoly, Truncation, mul, qpoch, render, truncated_equal

__version__ = "0.1.0"

__all__ = [
    "InvalidParams",
    "NonExactDivision",
    "NonPolynomial",
    "ONE",
    "QIdentError",
    "QPoly",
    "SufficiencyViolated",
    "Truncation",
    "UnbalancedParameters",
    "UnknownClosedForm",
    "ZERO",
    "mul",
    "qpoch",
    "render",
    "truncated_equal",
    "__version__",
]
