from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.errors import NonExactDivision, NonPolynomial, NonUnitConstantTerm
from qident.qpoly import (
    ONE,
    ZERO,
    QPoly,
    Truncation,
    euler_inverse_truncated,
    eval_at_one,
    exact_div,
    inv_qpoch,
    invert_truncated,
    mul,
    prod,
    qpoch,
    qpoch_signed_base2,
    render,
    truncated_equal,
)


# --- oracles -------------------------------------------------------------

def conv_oracle(a: dict, b: dict) -> dict:
    """Schoolbook convolution over exact rationals, independent of QPoly."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = Fraction(ea) + Fraction(eb)
            out[k] = out.get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def partition_numbers(limit: int) -> list:
    """p(0..limit) by bounded-part dynamic programming."""
    table = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            table[total] += table[total - part]
    return table


def as_frac_dict(p: QPoly) -> dict:
    return {Fraction(e): c for e, c in p.items()}


exponents = st.one_of(
    st.integers(min_value=0, max_value=10),
    st.fractions(min_value=0, max_value=8, max_denominator=4),
)
coeffs = st.integers(min_value=-6, max_value=6).filter(lambda c: c != 0)
polys = st.dictionaries(exponents, coeffs, max_size=6).map(QPoly)


# --- construction and equality -------------------------------------------

def test_canonical_drops_zeros_and_normalizes_fractions():
    p = QPoly({Fraction(4, 2): 3, 1: 0, Fraction(1, 2): 1})
    assert p.coeff(2) == 3
    assert p.coeff(1) == 0
    assert len(p) == 2
    assert p == QPoly({2: 3, Fraction(1, 2): 1})


def test_integer_equality():
    assert QPoly({0: 5}) == 5
    assert ZERO == 0
    assert QPoly({1: 1}) != 1


def test_truncation_is_inclusive():
    p = QPoly({0: 1, 3: 2, Fraction(7, 2): 1, 4: 5})
    t = p.truncate(Truncation(Fraction(7, 2)))
    assert t == QPoly({0: 1, 3: 2, Fraction(7, 2): 1})


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_mul_matches_convolution_oracle(a, b):
    assert as_frac_dict(mul(a, b)) == conv_oracle(dict(a.items()), dict(b.items()))


@given(polys, polys, polys)
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert mul(a, b + c) == mul(a, b) + mul(a, c)
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_truncated_mul_agrees_with_full(a, b):
    t = Truncation(6)
    assert mul(a, b, t) == mul(a, b).truncate(t)


# --- qpoch ----------------------------------------------------------------

def test_qpoch_examples():
    assert qpoch(1, 0) == ONE
    assert qpoch(1, 1) == QPoly({0: 1, 1: -1})
    assert qpoch(2, 2) == QPoly({0: 1, 2: -1, 3: -1, 5: 1})


def test_qpoch_factor_count():
    for m in range(6):
        p = qpoch(3, m)
        # degree of prod (1-q^{3+k}) is sum of the factor degrees
        expected_deg = sum(3 + k for k in range(m))
        if m == 0:
            assert p == ONE
        else:
            assert p.max_exponent() == expected_deg


def test_qpoch_zero_base_factor():
    # (q^s; q)_m contains 1 - q^0 = 0 whenever s <= 0 <= s+m-1
    assert qpoch(0, 1) == ZERO
    assert qpoch(-2, 3) == ZERO
    assert qpoch(-2, 2) != ZERO


def test_qpoch_eval_at_one_vanishes():
    for m in range(1, 8):
        assert eval_at_one(qpoch(1, m)) == 0


def test_qpoch_signed_base2_examples():
    assert qpoch_signed_base2(0) == ONE
    assert qpoch_signed_base2(1) == QPoly({0: 1, 1: 1})
    assert qpoch_signed_base2(2) == QPoly({0: 1, 1: 1, 3: 1, 4: 1})


# --- exact division --------------------------------------------------------

def test_exact_div_examples():
    assert exact_div(QPoly({0: 1, 2: -1}), QPoly({0: 1, 1: -1})) == QPoly({0: 1, 1: 1})
    p = QPoly({0: 2, 1: -3, 5: 7})
    assert exact_div(p, p) == ONE
    num = QPoly({0: 1, 1: -1, 2: -1, 3: 1})
    assert exact_div(num, QPoly({0: 1, 2: -1})) == QPoly({0: 1, 1: -1})


def test_exact_div_rejects_inexact():
    with pytest.raises(NonExactDivision):
        exact_div(QPoly({0: 1, 3: -1}), QPoly({0: 1, 2: -1}))
    with pytest.raises(NonExactDivision):
        exact_div(QPoly({0: 1, 1: 1}), QPoly({0: 2, 1: 1}))


def test_exact_div_laurent():
    num = QPoly({-2: 1, 0: -1})
    den = QPoly({-1: 1, 0: 1})
    assert exact_div(num, den) == QPoly({-1: 1, 0: -1})


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_exact_div_inverts_mul(a, b):
    if b.is_zero():
        return
    assert exact_div(mul(a, b), b) == a


# --- truncated inversion ----------------------------------------------------

def test_invert_geometric():
    r = invert_truncated(QPoly({0: 1, 1: -1}), Truncation(3))
    assert r == QPoly({0: 1, 1: 1, 2: 1, 3: 1})


def test_invert_identity():
    assert invert_truncated(ONE, Truncation(9)) == ONE


def test_invert_bounded_parts():
    # 1/(q;q)_3 counts partitions into parts <= 3
    r = invert_truncated(qpoch(1, 3), Truncation(4))
    assert r == QPoly({0: 1, 1: 1, 2: 2, 3: 3, 4: 4})


def test_invert_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        invert_truncated(QPoly({0: 2, 1: 1}), Truncation(3))
    with pytest.raises(NonUnitConstantTerm):
        invert_truncated(QPoly({1: 1}), Truncation(3))


def test_invert_negative_constant():
    p = QPoly({0: -1, 1: 1})
    r = invert_truncated(p, Truncation(4))
    assert truncated_equal(mul(p, r), ONE, Truncation(4))


def test_invert_fractional_gap():
    p = QPoly({0: 1, Fraction(1, 2): -1})
    r = invert_truncated(p, Truncation(2))
    assert truncated_equal(mul(p, r), ONE, Truncation(2))
    assert r.coeff(Fraction(3, 2)) == 1


@given(polys)
@settings(max_examples=40, deadline=None)
def test_invert_roundtrip(p):
    q = p + ONE - QPoly({0: p.coeff(0)})  # force constant term 1
    t = Truncation(8)
    assert truncated_equal(mul(q, invert_truncated(q, t), t), ONE, t)


@pytest.mark.parametrize("cap", [0, 1, 6, 11, Fraction(13, 2), Fraction(32, 3)])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_inv_qpoch_matches_inverted_product(s, cap):
    t = Truncation(cap)
    for k in range(0, int(cap) + 4):
        assert inv_qpoch(s, k, t) == invert_truncated(qpoch(s, k), t), (s, k, cap)


def test_inv_qpoch_edges():
    assert inv_qpoch(1, -1, Truncation(5)) == ZERO
    assert inv_qpoch(7, 3, Truncation(6)) == ONE
    with pytest.raises(ValueError):
        inv_qpoch(0, 2, Truncation(5))


# --- partition generating function ------------------------------------------

def test_euler_inverse_small():
    assert euler_inverse_truncated(Truncation(0)) == ONE
    assert euler_inverse_truncated(Truncation(3)) == QPoly({0: 1, 1: 1, 2: 2, 3: 3})
    coeffs5 = [euler_inverse_truncated(Truncation(5)).coeff(k) for k in range(6)]
    assert coeffs5 == [1, 1, 2, 3, 5, 7]


def test_euler_inverse_matches_partition_dp():
    limit = 40
    series = euler_inverse_truncated(Truncation(limit))
    assert [series.coeff(k) for k in range(limit + 1)] == partition_numbers(limit)


# --- evaluation ---------------------------------------------------------------

def test_eval_at_one():
    assert eval_at_one(QPoly({0: 1, 1: 1, 2: 1})) == 3
    assert eval_at_one(ZERO) == 0
    assert eval_at_one(QPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})) == 6


def test_eval_at_one_rejects_nonpolynomial():
    with pytest.raises(NonPolynomial):
        eval_at_one(QPoly({Fraction(1, 2): 1}))
    with pytest.raises(NonPolynomial):
        eval_at_one(QPoly({-1: 1}))


# --- rendering ------------------------------------------------------------------

def test_render_fixed_strings():
    assert render(ZERO) == "0"
    assert render(ONE) == "1"
    assert render(QPoly({0: 1, 1: -1, 2: 2})) == "1 - q + 2*q^2"
    assert render(QPoly({1: -1, 2: 1})) == "-q + q^2"
    assert render(QPoly({Fraction(1, 2): 3})) == "3*q^(1/2)"
    assert render(QPoly({Fraction(3, 2): -1, 2: 5})) == "-q^(3/2) + 5*q^2"
    assert render(QPoly({0: -7})) == "-7"


def test_render_is_ascending():
    s = render(QPoly({5: 1, 0: 1, Fraction(1, 2): 1}))
    assert s == "1 + q^(1/2) + q^5"


def test_prod_empty_and_zero():
    assert prod([]) == ONE
    assert prod([ONE, ZERO, QPoly({1: 1})]) == ZERO
