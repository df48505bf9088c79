import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qident.qbinom import (
    _qbin_dense,
    _qbin_symmetric,
    qbin,
    qbin_mod_tb,
    qbin_modified,
    qbin_standard,
    qbin_vector,
)
from qident.qpoly import ONE, ZERO, QPoly, Truncation, mul, qpoch, render

from oracles import exact_div


# --- oracle: product-ratio definition, no shared code path -------------------

def modified_oracle(m: int, n: int) -> QPoly:
    """(q^{n+1}; q)_m / (q; q)_m computed literally in the Laurent ring."""
    if m < 0:
        return ZERO
    num = ONE
    for k in range(m):
        num = mul(num, ONE - QPoly.monomial(1, n + 1 + k))
    return exact_div(num, qpoch(1, m))


def test_standard_examples():
    assert qbin_standard(1, 1) == QPoly({0: 1, 1: 1})
    assert qbin_standard(-1, 3) == ZERO
    assert qbin_standard(2, 2) == QPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


def test_top_bottom_form():
    assert qbin(4, 2) == qbin_standard(2, 2)
    assert qbin(3, 0) == ONE
    assert qbin(2, 5) == ZERO


def test_modified_examples():
    assert qbin_modified(2, -1) == ZERO
    assert qbin_modified(1, -3) == QPoly({-2: -1, -1: -1})
    assert qbin_modified(3, 2) == qbin_standard(3, 2)
    assert qbin_modified(-2, 5) == ZERO


def test_modified_matches_product_oracle():
    for m in range(0, 6):
        for n in range(-8, 6):
            assert qbin_modified(m, n) == modified_oracle(m, n), (m, n)


def test_modified_tb():
    assert qbin_mod_tb(-3, 1) == qbin_modified(1, -4)


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
@settings(max_examples=40, deadline=None)
def test_pascal_recurrence(a, b):
    if not (0 <= b <= a):
        return
    lhs = qbin(a, b)
    rhs = qbin(a - 1, b) + qbin(a - 1, b - 1).times_monomial(1, a - b)
    if a == 0:
        rhs = ONE  # recurrence needs a >= 1
    assert lhs == rhs


@given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=14))
@settings(max_examples=40, deadline=None)
def test_symmetry(m, n):
    assert qbin_standard(m, n) == qbin_standard(n, m)


def test_eval_at_one_is_binomial():
    from qident.qpoly import eval_at_one

    for m in range(0, 13):
        for n in range(0, 13):
            assert eval_at_one(qbin_standard(m, n)) == math.comb(m + n, m)


def test_vector_products():
    assert qbin_vector([]) == ONE
    two = QPoly({0: 1, 1: 1})
    assert qbin_vector([(1, 1), (1, 1)]) == mul(two, two)
    assert qbin_vector([(2, 1), (-1, 0), (1, 1)]) == ZERO
    assert qbin_vector(iter([(2, 1), (1, 1)])) == mul(qbin_standard(2, 1), two)


def test_linear_passes_match_the_product_formula():
    # [lo+hi over lo] = (q^{hi+1}; q)_lo / (q; q)_lo, multiplied out and divided exactly
    for lo in range(0, 13):
        num = qpoch(1, lo)  # (q^{hi+1}; q)_lo at hi = 0
        for hi in range(0, 41):
            if hi:  # (q^{hi+1}; q)_lo from (q^hi; q)_lo
                num = exact_div(mul(num, ONE - QPoly.monomial(1, hi + lo)),
                                ONE - QPoly.monomial(1, hi))
            built = _qbin_symmetric.__wrapped__(lo, hi)
            assert built == exact_div(num, qpoch(1, lo)), (lo, hi)
            assert sum(c for _, c in built.items()) == math.comb(lo + hi, lo)


def test_a_binomial_built_up_to_a_degree_is_the_whole_one_cut_there():
    # every degree from below the constant term to past the top, with vanishing entries
    for top in range(-2, 16):
        for bottom in range(-2, top + 3):
            whole = qbin(top, bottom)
            for deg in range(-1, max(top * top // 4, 0) + 3):
                want = whole.truncate(Truncation(deg)) if deg >= 0 else ZERO
                assert qbin(top, bottom, deg) == want, (top, bottom, deg)
                if 0 <= bottom <= top and deg >= 0:  # built that far, not cut from the whole
                    lo = min(bottom, top - bottom)
                    assert qbin(top, bottom, deg) == _qbin_dense(lo, top - lo, min(deg, lo * (top - lo)))


def test_cache_is_transparent():
    # the memoized and raw code paths must agree bit for bit
    for m, n in [(0, 0), (1, 4), (3, 3), (5, 2), (6, 7)]:
        cached = qbin_standard(m, n)
        raw = _qbin_symmetric.__wrapped__(min(m, n), max(m, n))
        assert cached == raw
        assert render(cached) == render(raw)


def test_nonnegative_coefficients():
    for m in range(0, 8):
        for n in range(0, 8):
            assert all(c > 0 for _, c in qbin_standard(m, n).items())
