"""Microbenchmarks of three pinned multiply shapes, through the public ``qpoly.mul``.

    dense_26x26_d25   26x26 dense truncated product at D = 25
    binom_226x193     full product of two Gaussian binomials, 226 x 193 terms
    thirds_26x21      26x21 product with exponents in thirds

Each is reported in microseconds per call: the median over several batches,
each batch long enough to dwarf the clock's resolution.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

_BATCH_S = 0.02
_BATCHES = 7


def _time_call(fn) -> float:
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= _BATCH_S:
            break
        n *= 2
    per_call = []
    for _ in range(_BATCHES):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        per_call.append((time.perf_counter() - t0) / n)
    return statistics.median(per_call) * 1e6


def shapes() -> dict:
    from qident import qbinom, qpoly

    rng = random.Random(1)
    dense_a = qpoly.QPoly({k: rng.randint(1, 9) for k in range(26)})
    dense_b = qpoly.QPoly({k: rng.randint(1, 9) for k in range(26)})
    d25 = qpoly.Truncation(25)
    binom_a = qbinom.qbin_standard(15, 15)
    binom_b = qbinom.qbin_standard(12, 16)
    thirds_a = qpoly.QPoly({Fraction(k, 3): rng.randint(1, 9) for k in range(26)})
    thirds_b = qpoly.QPoly({Fraction(k, 3): rng.randint(1, 9) for k in range(21)})
    if (len(binom_a), len(binom_b)) != (226, 193):
        raise RuntimeError("Gaussian binomial shapes changed; the kernel case is no longer 226x193")
    mul = qpoly.mul
    return {
        "qpoly.kernel.dense_26x26_d25_us": _time_call(lambda: mul(dense_a, dense_b, d25)),
        "qpoly.kernel.binom_226x193_us": _time_call(lambda: mul(binom_a, binom_b)),
        "qpoly.kernel.thirds_26x21_us": _time_call(lambda: mul(thirds_a, thirds_b)),
    }
