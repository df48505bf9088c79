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

Importing the package runs only errors and qpoly.  The other layers are
registered as lazily loaded modules: `qident.series` (or `from . import
series`) is the module object at once, and its code runs on the first
attribute read, so a command pays only for the layers its family uses.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .errors import InvalidParams, NonPolynomial, QIdentError, UnbalancedParameters, UnknownClosedForm
from .qpoly import ONE, ZERO, QPoly, Truncation, mul, qpoch, render, truncated_equal


def _lazy(name: str):
    """qident.<name>, to be executed by its first attribute read."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


qbinom, lattice, saalschutz, burge, multinom, series = map(
    _lazy, ("qbinom", "lattice", "saalschutz", "burge", "multinom", "series"))

__version__ = "0.1.0"

__all__ = [
    "InvalidParams",
    "NonPolynomial",
    "ONE",
    "QIdentError",
    "QPoly",
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
