from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import qbinom
from qident.errors import InvalidParams, NonPolynomial, NonUnitConstantTerm
from qident.qpoly import (
    ONE,
    ZERO,
    QPoly,
    Truncation,
    as_int,
    dot,
    euler_inverse_truncated,
    eval_at_one,
    half_int,
    inv_qpoch,
    invert_truncated,
    mul,
    norm_rat,
    twice,
    prod,
    qpoch,
    qpoch_signed_base2,
    render,
    truncated_equal,
)

from oracles import NonExactDivision, exact_div


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


@given(polys, coeffs, st.integers(min_value=-15, max_value=15), st.integers(min_value=1, max_value=12))
@settings(max_examples=120, deadline=None)
def test_times_monomial_matches_mul(p, coeff, num, den):
    # the denominators of p and den mix; num may be negative and num/den unreduced
    assert p.times_monomial(coeff, num, den) == mul(p, QPoly.monomial(coeff, Fraction(num, den)))


def test_times_monomial_examples():
    third = QPoly({Fraction(1, 3): 2, 1: -1})
    assert third.times_monomial(1, 2, 4) == QPoly({Fraction(5, 6): 2, Fraction(3, 2): -1})
    assert third.times_monomial(-1, -3) == QPoly({Fraction(-8, 3): -2, -2: 1})
    assert third.times_monomial(1, 4, 6) == QPoly({1: 2, Fraction(5, 3): -1})
    assert third.times_monomial(0, 1, 2) == ZERO and ZERO.times_monomial(3, 1, 2) == ZERO
    for bad in ((Fraction(1, 2),), (Fraction(1, 2), 3), (1, Fraction(3, 2))):
        with pytest.raises(TypeError):  # a rational exponent goes in as num, den
            QPoly({0: 1}).times_monomial(1, *bad)


# --- dense products (the Kronecker path) ------------------------------------

@st.composite
def dense_polys(draw, den=None, nonnegative=False, max_size=300, min_lo=0):
    """8 to max_size consecutive exponents lo/den, (lo+1)/den, ... from lo in
    min_lo..12, with signed coefficients, or positive ones when nonnegative."""
    den = den if den is not None else draw(st.sampled_from([1, 2, 3]))
    size = draw(st.integers(min_value=8, max_value=max_size))
    lo = draw(st.integers(min_value=min_lo, max_value=12))
    mag = draw(st.sampled_from([9, 2 ** 20, 2 ** 70]))
    nonzero = st.integers(min_value=0 if nonnegative else -mag, max_value=mag).filter(lambda c: c != 0)
    coeffs = draw(st.lists(nonzero, min_size=size, max_size=size))
    return QPoly({Fraction(lo + i, den): c for i, c in enumerate(coeffs)})


@st.composite
def dense_pairs(draw):
    """Two dense operands, both nonnegative (the unsigned slot path) or both signed."""
    den = draw(st.sampled_from([1, 2, 3, "mixed"]))
    nonnegative = draw(st.booleans())
    dens = (2, 3) if den == "mixed" else (den, den)
    return tuple(draw(dense_polys(den=d, nonnegative=nonnegative)) for d in dens)


@st.composite
def caps_for(draw, a, b):
    """A cap below, at or past the exponent range of the product a*b."""
    lo, hi = a.min_exponent() + b.min_exponent(), a.max_exponent() + b.max_exponent()
    where = draw(st.sampled_from(["below", "lowest", "inside", "highest", "past"]))
    if where == "below":
        return max(Fraction(0), lo - Fraction(1, 2))
    if where == "lowest":
        return lo
    if where == "inside":  # a bound's denominator may pass 6, as 1/4 + 1/3 does
        return draw(st.fractions(min_value=lo, max_value=hi,
                                 max_denominator=max(6, lo.denominator, hi.denominator)))
    return hi if where == "highest" else hi + draw(st.integers(min_value=1, max_value=5))


@given(dense_pairs())
@settings(max_examples=15, deadline=None)
def test_dense_mul_matches_convolution_oracle(pair):
    a, b = pair
    assert as_frac_dict(mul(a, b)) == conv_oracle(dict(a.items()), dict(b.items()))


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_dense_truncated_mul_matches_oracle(data):
    a, b = data.draw(dense_pairs())
    cap = data.draw(caps_for(a, b))
    want = {e: c for e, c in conv_oracle(dict(a.items()), dict(b.items())).items() if e <= cap}
    got = mul(a, b, Truncation(cap))
    assert as_frac_dict(got) == want
    assert got == mul(a, b).truncate(Truncation(cap))


@pytest.mark.parametrize("den", [1, 3])
def test_dense_mul_cancels_to_zero_coefficients(den):
    # (1 + x + ... + x^19)(1 - x + ... - x^19) = (1 - x^20)(1 + x^2 + ... + x^18), x = q^(1/den)
    x = Fraction(1, den)
    a = QPoly({k * x: 1 for k in range(20)})
    b = QPoly({k * x: (-1) ** k for k in range(20)})
    want = QPoly({k * x: 1 for k in range(0, 20, 2)}) - QPoly({k * x: 1 for k in range(20, 40, 2)})
    assert mul(a, b) == want
    assert mul(a, b, Truncation(Fraction(25, den))) == want.truncate(Truncation(Fraction(25, den)))
    assert mul(a, b, Truncation(Fraction(25, den))).coeff(Fraction(22, den)) == -1


def _slot_cases():
    # 17 constant coefficients times 17 reach max|a| * max|b| * 17 at the
    # middle key, so each product's largest coefficient is exactly the bound
    # that picks its slot: 2**(8w) - 1 fills a w-byte slot, 2**(8w) needs the
    # next one, and from 2**64 on the signed path takes over
    fill = {1: (3, 5), 2: (257, 15), 4: (257 * 65537, 15), 8: (257 * 641 * 65537 * 6700417, 15)}
    for width, (ca, cb) in fill.items():
        assert ca * cb * 17 == 2 ** (8 * width) - 1
        yield pytest.param(ca, cb, 17, id=f"fills_{width}_bytes")
        yield pytest.param(2 ** (8 * width - 8), 16, 16, id=f"overflows_{width}_bytes")
    yield pytest.param(2 ** 64 + 1, 1, 16, id="coefficient_above_2_64")


@pytest.mark.parametrize("ca, cb, size", _slot_cases())
@pytest.mark.parametrize("cap", [None, 8, 20])
@pytest.mark.parametrize("signs", ["nonnegative", "mixed"])
def test_dense_mul_at_slot_boundaries(ca, cb, size, cap, signs):
    a = QPoly({k: ca for k in range(size)})
    b = QPoly({k: cb if signs == "nonnegative" or k % 5 else -cb for k in range(size)})
    want = conv_oracle(dict(a.items()), dict(b.items()))
    if signs == "nonnegative":
        assert max(want.values()) == ca * cb * size
    trunc = None if cap is None else Truncation(cap)
    if trunc is not None:
        want = {e: c for e, c in want.items() if e <= cap}
    assert as_frac_dict(mul(a, b, trunc)) == want
    assert as_frac_dict(mul(b, a, trunc)) == want


def test_mul_by_a_unit_equal_to_one_returns_the_other_operand():
    b = QPoly({0: 3, 2: -1, Fraction(1, 2): 5})
    assert mul(QPoly({0: 1}), b) is b and mul(b, ONE) is b
    assert mul(QPoly({0: 1}), b, Truncation(1)) == b.truncate(Truncation(1))


def _kernel_shapes():
    # the three multiply shapes pinned by bench/kernels.py, built the same way
    import random

    rng = random.Random(1)
    dense_a = QPoly({k: rng.randint(1, 9) for k in range(26)})
    dense_b = QPoly({k: rng.randint(1, 9) for k in range(26)})
    binom_a, binom_b = qbinom.qbin_standard(15, 15), qbinom.qbin_standard(12, 16)
    thirds_a = QPoly({Fraction(k, 3): rng.randint(1, 9) for k in range(26)})
    thirds_b = QPoly({Fraction(k, 3): rng.randint(1, 9) for k in range(21)})
    return [
        pytest.param(dense_a, dense_b, Truncation(25), id="dense_26x26_d25"),
        pytest.param(binom_a, binom_b, None, id="binom_226x193"),
        pytest.param(thirds_a, thirds_b, None, id="thirds_26x21"),
    ]


@pytest.mark.parametrize("a, b, trunc", _kernel_shapes())
def test_kernel_shapes_match_oracle(a, b, trunc):
    want = conv_oracle(dict(a.items()), dict(b.items()))
    if trunc is not None:
        want = {e: c for e, c in want.items() if e <= trunc.degree_cap}
    assert as_frac_dict(mul(a, b, trunc)) == want


# --- operand views: one operand in several products --------------------------------

def oracle_mul(a, b, cap=None):
    want = conv_oracle(dict(a.items()), dict(b.items()))
    return want if cap is None else {e: c for e, c in want.items() if e <= cap}


def test_operand_reused_at_two_slot_widths():
    a = QPoly({k: 3 for k in range(20)})
    narrow = QPoly({k: 1 for k in range(20)})  # bound 3 * 1 * 20 fits one byte
    wide = QPoly({k: 5000 + k for k in range(20)})  # bound about 2**21 needs four
    for b in (narrow, wide, narrow, wide):
        assert as_frac_dict(mul(a, b)) == oracle_mul(a, b)
    assert sorted(a._view[4]) == [1, 4]  # a kept one packed value per width


@pytest.mark.parametrize("first", ["whole", "clipped"])
@pytest.mark.parametrize("signs", ["nonnegative", "mixed"])
def test_operand_clipped_before_or_after_a_whole_product(first, signs):
    a = QPoly({k: k % 7 + 1 for k in range(30)})
    b = QPoly({k: (k % 5 + 1) * (-1 if signs == "mixed" and k % 3 == 0 else 1) for k in range(25)})
    cap = Truncation(12)  # clips both operands
    order = [None, cap] if first == "whole" else [cap, None]
    for trunc in order * 2:
        want = oracle_mul(a, b, None if trunc is None else trunc.degree_cap)
        assert as_frac_dict(mul(a, b, trunc)) == want
        assert as_frac_dict(mul(b, a, trunc)) == want
    # a clipped operand's packed value is never kept: each kept value is the whole list's
    for p in (a, b):
        cs, packs = p._view[1], p._view[4]
        assert packs and all(v == sum(c << (8 * w * i) for i, c in enumerate(cs))
                             for w, v in packs.items())


def test_operands_built_by_constructor_and_by_arithmetic():
    built = QPoly({k: k + 1 for k in range(15)})
    made = QPoly({0: 1}) + sum((QPoly({k: k + 1}) for k in range(1, 15)), ZERO)
    grown = mul(QPoly({k: 1 for k in range(8)}), QPoly({k: 1 for k in range(8)}))  # a product
    assert built == made
    for a, b in ((built, made), (made, grown), (grown, built), (built, made)):
        assert as_frac_dict(mul(a, b)) == oracle_mul(a, b)
        assert as_frac_dict(mul(a, b, Truncation(9))) == oracle_mul(a, b, 9)


def test_operand_scaled_to_a_finer_denominator():
    # a's keys double against halves: its dense run spreads with a zero between
    # each pair of slots for that product, and its own view stays as it was
    a = QPoly({k: k % 4 + 1 for k in range(20)})
    halves = QPoly({Fraction(k, 2): 2 - k % 3 for k in range(30)})
    for b in (a, halves, a, halves):
        assert as_frac_dict(mul(a, b)) == oracle_mul(a, b)
        assert as_frac_dict(mul(b, a, Truncation(Fraction(21, 2)))) == oracle_mul(a, b, Fraction(21, 2))
    assert a._view[0] == 0 and len(a._view[1]) == 20


def test_mixed_sign_pair_reuses_both_operands():
    # bound 3 * 1 * 20 = 60 takes one-byte slots on both paths, so the signed
    # product reads the nonnegative operand's packed value from its view
    a = QPoly({k: 3 for k in range(20)})
    ones = QPoly({k: 1 for k in range(20)})
    signed = QPoly({k: (-1) ** k for k in range(20)})
    for b in (ones, signed, signed, ones):
        assert as_frac_dict(mul(a, b)) == oracle_mul(a, b)
        assert as_frac_dict(mul(b, a, Truncation(15))) == oracle_mul(a, b, 15)
    assert sorted(a._view[4]) == sorted(signed._view[4]) == [1]


# --- sums of products: one packed integer for the dense pairs ---------------------

def oracle_dot(pairs, cap=None):
    want = {}
    for a, b in pairs:
        for e, c in oracle_mul(a, b, cap).items():
            want[e] = want.get(e, 0) + c
    return {e: c for e, c in want.items() if c}


@st.composite
def dot_pairs(draw):
    """0 to 6 pairs: dense ones, which dot packs, mixed with a zero operand, a
    small pair under mul's cut-over or a sparse operand, which go through mul."""
    nonnegative = draw(st.booleans())
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        den = draw(st.sampled_from([1, 2, 3, "mixed"]))
        dens = (2, 3) if den == "mixed" else (den, den)
        # up to 40 terms keep the oracle quick; from -60 a product may lie wholly below 0
        a, b = (draw(dense_polys(d, nonnegative, max_size=40, min_lo=-60)) for d in dens)
        kind = draw(st.sampled_from(["dense", "dense", "dense", "zero", "small", "sparse"]))
        if kind == "zero":
            a = ZERO
        elif kind == "small":
            a = draw(polys)
        elif kind == "sparse":  # one key in five: no dense view
            a = QPoly({e * 5: c for e, c in a.items()})
        pairs.append((a, b) if draw(st.booleans()) else (b, a))
    return pairs


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_dot_matches_the_summed_convolution_oracle(data):
    pairs = data.draw(dot_pairs())
    assert as_frac_dict(dot(pairs)) == oracle_dot(pairs)
    nonzero = [(a, b) for a, b in pairs if a and b]
    if nonzero:
        cap = max(Fraction(0), data.draw(caps_for(*nonzero[0])))  # a cap is never negative
        got = dot(pairs, Truncation(cap))
        assert as_frac_dict(got) == oracle_dot(pairs, cap)
        assert got == dot(pairs).truncate(Truncation(cap))


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_dot_of_one_pair_is_mul(data):
    a, b = data.draw(dense_pairs())
    cap = data.draw(caps_for(a, b))
    assert dot([(a, b)]) == mul(a, b)
    assert dot([(a, b)], Truncation(cap)) == mul(a, b, Truncation(cap))


def test_dot_of_nothing_or_zeros_is_zero():
    a = QPoly({k: 1 for k in range(20)})
    assert dot([]) == ZERO and dot([(ZERO, a), (a, ZERO)]) == ZERO
    assert dot([(a, a)], Truncation(Fraction(1, 2))) == QPoly({0: 1})


def _sum_slot_cases():
    # two products that each fill a w-byte slot exactly (see _slot_cases) and
    # so, added, need the next width; at 8 bytes the sum crosses 2**64 and takes
    # the signed path
    for width, (ca, cb) in {1: (3, 5), 2: (257, 15), 4: (257 * 65537, 15),
                            8: (257 * 641 * 65537 * 6700417, 15)}.items():
        yield pytest.param(ca, cb, 17, 2, id=f"two_fill_{width}_bytes")
    # signed: each bound 3 * 1 * 21 = 63 takes one byte with its sign bit free,
    # three of them reach -189, which needs two
    yield pytest.param(-3, 1, 21, 3, id="three_signed_fill_1_byte")


@pytest.mark.parametrize("ca, cb, size, count", _sum_slot_cases())
@pytest.mark.parametrize("capped", [False, True])
def test_dot_slot_comes_from_the_bound_of_the_sum(ca, cb, size, count, capped):
    pairs = [(QPoly({k: ca for k in range(size)}), QPoly({k: cb for k in range(size)}))] * count
    cap = size - 1 if capped else None  # the middle key: every coefficient still reaches it
    want = oracle_dot(pairs, cap)
    assert want[size - 1] == count * ca * cb * size  # the middle key holds every product's bound
    assert as_frac_dict(dot(pairs, None if cap is None else Truncation(cap))) == want


def test_dot_keeps_whole_packs_per_width_and_never_a_clipped_one():
    a = QPoly({k: 3 for k in range(20)})
    narrow = QPoly({k: 1 for k in range(20)})  # 3 * 1 * 20 = 60: one byte for one pair
    wide = QPoly({k: 5000 + k for k in range(20)})  # about 2**21: four bytes
    for pairs in ([(a, narrow)], [(a, narrow)] * 5, [(a, wide), (narrow, a)]):
        assert as_frac_dict(dot(pairs)) == oracle_dot(pairs)
        assert as_frac_dict(dot(pairs, Truncation(12))) == oracle_dot(pairs, 12)  # clips every operand
    assert sorted(a._view[4]) == [1, 2, 4]  # 5 * 60 = 300 took two bytes
    for p in (a, narrow, wide):
        cs, packs = p._view[1], p._view[4]
        assert packs and all(v == sum(c << (8 * w * i) for i, c in enumerate(cs)) for w, v in packs.items())


def test_binom_kernel_shape_sizes():
    assert (len(qbinom.qbin_standard(15, 15)), len(qbinom.qbin_standard(12, 16))) == (226, 193)


# --- canonical form -------------------------------------------------------------

def test_integral_results_have_int_exponents():
    half = QPoly.monomial(1, Fraction(1, 2))
    third = QPoly.monomial(1, Fraction(1, 3))
    for p in (mul(half, half), third + QPoly({1: 1}) - third, half.times_monomial(1, 1, 2)):
        assert list(p.items()) == [(1, 1)]
        assert all(type(e) is int for e, _ in p.items())
        assert p == QPoly({1: 1})
        assert render(p) == "q"
    assert mul(third, QPoly({0: 1, Fraction(2, 3): 1})).max_exponent() == 1
    assert type(mul(third, QPoly({0: 1, Fraction(2, 3): 1})).max_exponent()) is int


def test_equal_however_built():
    terms = [(Fraction(1, 2), 3), (2, -1), (Fraction(5, 3), 4), (0, 7)]
    p = QPoly(terms)
    assert QPoly(list(reversed(terms))) == p
    assert QPoly(dict(terms)) == p
    # through other denominators: sixths that cancel, and shifted monomials
    built = QPoly({Fraction(1, 6): 1, 0: 7}) - QPoly({Fraction(1, 6): 1})
    built = built + QPoly.monomial(3, Fraction(1, 4)).times_monomial(1, 1, 4)
    built = built + QPoly({Fraction(5, 6): 4}).times_monomial(1, 5, 6) - QPoly({2: 1})
    assert built == p
    assert render(built) == render(p) == "7 + 3*q^(1/2) + 4*q^(5/3) - q^2"
    assert sorted(built.items()) == sorted(p.items())
    assert p.coeff(Fraction(5, 3)) == 4 and p.coeff(Fraction(5, 6)) == 0
    assert (p.min_exponent(), p.max_exponent()) == (0, 2)


def test_exact_div_and_inverse_with_denominators():
    a = QPoly({Fraction(k, 3): k - 4 for k in range(9)})
    b = QPoly({0: 1, Fraction(1, 2): -2, Fraction(3, 2): 5})
    assert exact_div(mul(a, b), b) == a
    assert exact_div(mul(a, b), a) == b
    t = Truncation(Fraction(17, 6))
    r = invert_truncated(b, t)
    assert truncated_equal(mul(b, r, t), ONE, t)
    assert all(Fraction(e).denominator in (1, 2) for e, _ in r.items())
    with pytest.raises(NonExactDivision):
        exact_div(a, QPoly({0: 1, Fraction(1, 2): 1}))


def test_rational_helpers():
    assert as_int(7, "x") == 7 and type(as_int(Fraction(6, 2), "x")) is int
    assert norm_rat(5) == 5 and norm_rat(Fraction(4, 2)) == 2 and norm_rat(Fraction(1, 2)) == Fraction(1, 2)
    assert half_int(-6, "binomial entry") == -3
    with pytest.raises(InvalidParams, match=r"^binomial entry must be an integer, got 7/2$"):
        half_int(7, "binomial entry")
    with pytest.raises(InvalidParams, match=r"^binomial entry must be an integer, got -1/2$"):
        half_int(-1, "binomial entry")
    with pytest.raises(InvalidParams, match=r"got 3/2$"):
        as_int(Fraction(3, 2), "binomial entry")
    assert twice(3, "L") == 6 and twice(Fraction(-5, 2), "L") == -5
    assert type(twice(Fraction(4, 2), "L")) is int
    with pytest.raises(InvalidParams, match=r"^L must be a multiple of 1/2, got 1/3$"):
        twice(Fraction(1, 3), "L")


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
