from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.lattice import (
    axis_source,
    cartan,
    enumerate_admissible,
    solve_system,
    system_sum,
)
from qident.qbinom import qbin
from qident.qpoly import ONE, ZERO, QPoly, mul


# --- independent oracle ----------------------------------------------------

def invert_oracle(rows):
    """Plain Gauss-Jordan over Fractions, no shared code with the library."""
    r = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(r)] + [Fraction(i == j) for j in range(r)] for i in range(r)]
    for c in range(r):
        p = next(k for k in range(c, r) if aug[k][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for k in range(r):
            if k != c and aug[k][c]:
                f = aug[k][c]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[c])]
    return [row[r:] for row in aug]


def box_oracle(cd, v, offset):
    """Exhaustive scan of 0 <= n_k <= N(|v|_1 + 1) with Fraction arithmetic."""
    rank = cd.rank
    if rank == 0:
        ok = offset is None or Fraction(offset).denominator == 1
        return [((), ())] if ok else []
    cinv = invert_oracle(cd.cartan)
    hi = cd.n * (sum(abs(x) for x in v) + 1)
    found = []

    def rec(prefix):
        if len(prefix) == rank:
            if offset is not None:
                first = sum(cinv[0][j] * prefix[j] for j in range(rank))
                if (Fraction(offset) + first).denominator != 1:
                    return
            w = [v[j] - 2 * prefix[j] for j in range(rank)]
            m = [sum(cinv[i][j] * w[j] for j in range(rank)) for i in range(rank)]
            if all(x.denominator == 1 and x >= 0 for x in m):
                found.append((tuple(prefix), tuple(int(x) for x in m)))
            return
        for x in range(hi + 1):
            rec(prefix + [x])

    rec([])
    return sorted(found)


# --- matrix data -------------------------------------------------------------

def test_cartan_n3():
    cd = cartan(3)
    assert cd.cartan == ((2, -1), (-1, 2))
    assert cd.cinv_num == ((2, 1), (1, 2))
    assert cd.cinv_den == 3


def test_cartan_rank0():
    cd = cartan(1)
    assert cd.rank == 0
    assert cd.qform(()) == 0
    assert cd.cinv_num == ()


def test_cartan_n2():
    cd = cartan(2)
    assert cd.cartan == ((2,),)
    assert cd.cinv_num == ((1,),)
    assert cd.cinv_den == 2


def test_tadpole_matrices():
    cd = cartan(3, "tadpole")
    assert cd.incidence == ((1, 1), (1, 0))
    assert cd.cartan == ((1, -1), (-1, 2))
    # det T = 1, so the inverse is integral
    assert cd.cinv_den == 1


def test_cinv_is_exact_inverse():
    for kind in ("a", "tadpole"):
        for n in range(1, 13):
            cd = cartan(n, kind)
            r = cd.rank
            for i in range(r):
                for j in range(r):
                    acc = sum(cd.cartan[i][k] * cd.cinv_num[k][j] for k in range(r))
                    assert acc == (cd.cinv_den if i == j else 0)


def test_first_component_closed_form():
    # (Cinv x)_1 = sum_i (N-i) x_i / N for the A family
    for n in range(2, 8):
        cd = cartan(n)
        x = tuple((-1) ** i * (i + 2) for i in range(cd.rank))
        expected = Fraction(sum((n - (i + 1)) * x[i] for i in range(cd.rank)), n)
        assert cd.cinv_component(x, 0) == expected


# --- restriction and solving ---------------------------------------------------

def test_restriction_examples():
    # offset + (Cinv n)_1 in Z; rank 0 keeps its one solution only for an integral offset
    assert len(enumerate_admissible(cartan(1), (), 3)) == 1
    assert enumerate_admissible(cartan(1), (), Fraction(1, 2)) == ()
    assert (Fraction(1, 4) + cartan(2).cinv_component((1,), 0)).denominator != 1
    assert cartan(3).cinv_component((1, 1), 0).denominator == 1


def test_solve_examples():
    cd = cartan(2)
    assert solve_system(cd, (0,), (2,)).m_vec == (1,)
    assert solve_system(cd, (1,), (2,)).m_vec == (0,)
    assert solve_system(cartan(3), (1, 0), (3, 0)) is None


def test_resubstitution_identity():
    # m + n = (inc*m + v)/2 for every admissible solution
    for n in range(2, 6):
        cd = cartan(n)
        for v0 in range(0, 7):
            v = axis_source(cd.rank, [(1, v0)])
            for sol in enumerate_admissible(cd, v, None):
                lhs = [a + b for a, b in zip(sol.m_vec, sol.n_vec)]
                im = [sum(cd.incidence[i][j] * sol.m_vec[j] for j in range(cd.rank)) for i in range(cd.rank)]
                rhs = [Fraction(im[i] + v[i], 2) for i in range(cd.rank)]
                assert [Fraction(x) for x in lhs] == rhs


# --- enumeration -----------------------------------------------------------------

def test_enumeration_fixed_example():
    sols = enumerate_admissible(cartan(2), (2,), Fraction(1, 2))
    assert [(s.n_vec, s.m_vec) for s in sols] == [((1,), (0,))]


def test_enumeration_rank0():
    assert len(enumerate_admissible(cartan(1), (), 0)) == 1
    assert len(enumerate_admissible(cartan(1), (), Fraction(1, 2))) == 0
    assert len(enumerate_admissible(cartan(1), (), None)) == 1


def test_enumeration_empty_when_offset_unreachable():
    # offset 1/2 needs (Cinv n)_1 = n/2 half-integral, i.e. n odd; v=0 then
    # forces m = -n < 0
    assert enumerate_admissible(cartan(2), (0,), Fraction(1, 2)) == ()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_box_oracle(n):
    cd = cartan(n)
    cases = [
        ((0,) * cd.rank, 0),
        (axis_source(cd.rank, [(1, 3)]), Fraction(3, 2 * n)),
        (axis_source(cd.rank, [(1, 4)]), Fraction(4 + n, 2 * n)),
        (axis_source(cd.rank, [(1, 2), (cd.rank, 3)]), None),
        (axis_source(cd.rank, [(1, 5), (cd.rank, 5)]), Fraction(1, 2)),
    ]
    for v, offset in cases:
        got = sorted((s.n_vec, s.m_vec) for s in enumerate_admissible(cd, v, offset))
        assert got == box_oracle(cd, v, offset)


def test_tadpole_enumeration_matches_box_oracle():
    for n in (2, 3, 4):
        cd = cartan(n, "tadpole")
        v = axis_source(cd.rank, [(1, 2)])
        got = sorted((s.n_vec, s.m_vec) for s in enumerate_admissible(cd, v, None))
        assert got == box_oracle(cd, v, None)


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_enumeration_oracle_randomized(n, i, ell):
    cd = cartan(n)
    v = axis_source(cd.rank, [(1, 2 * i + ell)])
    offset = Fraction(2 * i + ell, 2 * n)
    got = sorted((s.n_vec, s.m_vec) for s in enumerate_admissible(cd, v, offset))
    assert got == box_oracle(cd, v, offset)


# --- parity structure of admissible solutions -------------------------------------

@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=1),
)
@settings(max_examples=60, deadline=None)
def test_parity_pattern(n, i, ell, sigma):
    # restricted systems with v = (2i+ell) e_1 carry fixed component parities
    if (ell + sigma * n) % 2:
        return
    if n % 2 == 0 and ell % 2:
        return
    cd = cartan(n)
    v = axis_source(cd.rank, [(1, 2 * i + ell)])
    offset = Fraction(2 * i + ell + sigma * n, 2 * n)
    for sol in enumerate_admissible(cd, v, offset):
        m = sol.m_vec
        if n % 2 == 1:
            for j in range(0, cd.rank, 2):  # m_1, m_3, ... in 1-based math
                assert m[j] % 2 == 0
            for j in range(1, cd.rank, 2):
                assert m[j] % 2 == ell % 2
        else:
            odd_parities = {m[j] % 2 for j in range(0, cd.rank, 2)}
            assert len(odd_parities) <= 1
            if odd_parities:
                assert odd_parities == {sigma % 2}
            for j in range(1, cd.rank, 2):
                assert m[j] % 2 == 0


def test_unit_vector_and_axis_source():
    assert axis_source(3, [(1, 1)]) == (1, 0, 0)
    assert axis_source(3, [(4, 1)]) == (0, 0, 0)
    assert axis_source(1, [(1, 2), (1, 3)]) == (5,)
    assert axis_source(0, [(1, 9)]) == ()


# --- the system-sum kernel ---------------------------------------------------------

def system_sum_oracle(cd, solutions, weight, shift):
    """Binomial products term by term over box_oracle's solutions."""
    cinv = invert_oracle(cd.cartan)
    r = cd.rank
    total = ZERO
    for n_vec, m_vec in solutions:
        term = weight(m_vec)
        for mj, nj in zip(m_vec, n_vec):
            term = mul(term, qbin(mj + nj, nj))
        exp = sum(n_vec[i] * cinv[i][j] * (n_vec[j] - shift[j]) for i in range(r) for j in range(r))
        total = total + term.times_monomial(1, exp)
    return total


def _dropping_weight(m):
    # zero when m_1 = 0, a fractional monomial otherwise
    if m and m[0] == 0:
        return ZERO
    return QPoly.monomial(1 + sum(m), Fraction(sum(m), 3))


@pytest.mark.parametrize("kind", ["a", "tadpole"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_system_sum_matches_oracle(kind, n):
    cd = cartan(n, kind)
    r = cd.rank
    v = axis_source(r, [(1, 2), (r, 2)])
    units = [axis_source(r, [(k, 1)]) for k in range(1, r + 1)]
    nonzero = dropped = 0
    for offset in (None, Fraction(1, max(n, 2))):
        solutions = box_oracle(cd, v, offset)
        dropped += sum(1 for _, m in solutions if m and m[0] == 0)
        for shift in [None] + units + [v]:
            for weight in (None, _dropping_weight):
                got = system_sum(cd, v, offset, weight, shift)
                want = system_sum_oracle(
                    cd, solutions, weight or (lambda m: ONE), shift or (0,) * r
                )
                assert got == want
                nonzero += not got.is_zero()
    assert nonzero
    assert dropped or r == 0
