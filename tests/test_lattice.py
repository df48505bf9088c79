import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import lattice
from qident.errors import InvalidParams
from qident.lattice import (
    _class_sum,
    _invert_fraction_matrix,
    axis_source,
    cartan,
    class_terms,
    enumerate_admissible,
    i_sum,
    i_term,
    plain_sum,
    shell,
    solve_system,
    system_sum,
)
from qident.qbinom import qbin
from qident.qpoly import ONE, ZERO, QPoly, Truncation, mul


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
    """Exhaustive scan of 0 <= n_k <= N(|v|_1 + 1) with Fraction arithmetic.

    offset is the integer t of the restriction t/(2N) + (Cinv n)_1 in Z.
    """
    rank = cd.rank
    if offset is not None:
        offset = Fraction(offset, 2 * cd.n)
    if rank == 0:
        ok = offset is None or offset.denominator == 1
        return [((), ())] if ok else []
    cinv = invert_oracle(cd.cartan)
    hi = cd.n * (sum(abs(x) for x in v) + 1)
    found = []

    def rec(prefix):
        if len(prefix) == rank:
            if offset is not None:
                first = sum(cinv[0][j] * prefix[j] for j in range(rank))
                if (offset + first).denominator != 1:
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
        assert Fraction(cd.cinv_component(x, 0), cd.cinv_den) == expected


@pytest.mark.parametrize("kind", ["a", "tadpole"])
@pytest.mark.parametrize("n", range(1, 7))
def test_integer_forms_match_fraction_inverse(kind, n):
    # qform and cinv_component are numerators over cinv_den of the Fraction inverse's values
    cd = cartan(n, kind)
    r = cd.rank
    inv = _invert_fraction_matrix(cd.cartan)
    vecs = [tuple((k * (i + 3) + i * i) % 5 - (k % 3) for i in range(r)) for k in range(12)]
    for vec in vecs:
        form = sum(vec[i] * inv[i][j] * vec[j] for i in range(r) for j in range(r))
        assert type(cd.qform(vec)) is int
        assert Fraction(cd.qform(vec), cd.cinv_den) == form
        for idx in range(r):
            comp = cd.cinv_component(vec, idx)
            assert type(comp) is int
            assert Fraction(comp, cd.cinv_den) == sum(inv[idx][j] * vec[j] for j in range(r))


# --- restriction and solving ---------------------------------------------------

def test_restriction_examples():
    # offset/(2N) + (Cinv n)_1 in Z; rank 0 keeps its one solution only for an integral offset/2
    assert len(enumerate_admissible(cartan(1), (), 6)) == 1
    assert enumerate_admissible(cartan(1), (), 1) == ()
    assert (Fraction(1, 4) + Fraction(cartan(2).cinv_component((1,), 0), 2)).denominator != 1
    assert cartan(3).cinv_component((1, 1), 0) % cartan(3).cinv_den == 0
    with pytest.raises(TypeError):
        enumerate_admissible(cartan(2), (2,), Fraction(1, 2))


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
    sols = enumerate_admissible(cartan(2), (2,), 2)  # 2/(2N) = 1/2
    assert [(s.n_vec, s.m_vec) for s in sols] == [((1,), (0,))]


def test_enumeration_rank0():
    assert len(enumerate_admissible(cartan(1), (), 0)) == 1
    assert len(enumerate_admissible(cartan(1), (), 1)) == 0
    assert len(enumerate_admissible(cartan(1), (), None)) == 1


def test_enumeration_empty_when_offset_unreachable():
    # offset 2/(2N) = 1/2 needs (Cinv n)_1 = n/2 half-integral, i.e. n odd;
    # v=0 then forces m = -n < 0
    assert enumerate_admissible(cartan(2), (0,), 2) == ()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_box_oracle(n):
    cd = cartan(n)
    cases = [
        ((0,) * cd.rank, 0),
        (axis_source(cd.rank, [(1, 3)]), 3),
        (axis_source(cd.rank, [(1, 4)]), 4 + n),
        (axis_source(cd.rank, [(1, 2), (cd.rank, 3)]), None),
        (axis_source(cd.rank, [(1, 5), (cd.rank, 5)]), n),
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
    offset = 2 * i + ell
    got = sorted((s.n_vec, s.m_vec) for s in enumerate_admissible(cd, v, offset))
    assert got == box_oracle(cd, v, offset)


# --- the pruned walk ----------------------------------------------------------------

def box_scan(cd, v, offset):
    """The box scan the walk replaced: every n >= 0 with sum(n) <= floor(sum(v)/2),
    kept when m = Cinv (v - 2n) is integral and nonnegative and the restriction
    holds, in lexicographic order; Fraction arithmetic throughout."""
    rank, budget = cd.rank, sum(v) // 2
    if budget < 0:
        return []
    cinv = invert_oracle(cd.cartan) if rank else []
    found = []
    for n_vec in itertools.product(range(budget + 1), repeat=rank):
        if sum(n_vec) > budget:
            continue
        first = sum(cinv[0][j] * n_vec[j] for j in range(rank)) if rank else 0
        if offset is not None and (Fraction(offset, 2 * cd.n) + first).denominator != 1:
            continue
        m = [sum(cinv[i][j] * (v[j] - 2 * n_vec[j]) for j in range(rank)) for i in range(rank)]
        if all(x.denominator == 1 and x >= 0 for x in m):
            found.append((n_vec, tuple(int(x) for x in m)))
    return found


@pytest.mark.parametrize("kind", ["a", "tadpole"])
@pytest.mark.parametrize("n", range(1, 8))
def test_walk_matches_the_box_scan(kind, n):
    # random one-end and two-end sources, negative entries included; offsets None, even, odd
    cd, rng = cartan(n, kind), random.Random(f"walk/{kind}/{n}")
    r = cd.rank
    sources = [axis_source(r, [(1, rng.randint(-2, 9))]) for _ in range(3)]
    sources += [axis_source(r, [(1, rng.randint(-2, 6)), (r, rng.randint(-2, 6))]) for _ in range(3)]
    kept = 0
    for v in sources:
        for offset in (None, 2 * rng.randint(-3, 3), 2 * rng.randint(-3, 3) + 1):
            sols = enumerate_admissible(cd, v, offset)
            got = [(s.n_vec, s.m_vec) for s in sols]
            assert got == box_scan(cd, v, offset), (v, offset)
            assert all(s.form == cd.qform(s.n_vec) for s in sols)  # the form the walk yields
            kept += len(got)
    assert kept


@pytest.mark.parametrize("kind", ["a", "tadpole"])
@pytest.mark.parametrize("n", range(2, 6))
def test_walk_meets_row_bounds_and_cap_exactly(kind, n):
    # a bound b on row j caps coordinate k at b // (Cinv_jk cinv_den), so the box is exhaustive
    cd, rng = cartan(n, kind), random.Random(f"bounds/{kind}/{n}")
    r, den = cd.rank, cd.cinv_den
    for _ in range(6):
        bounds = [rng.choice([None, None, rng.randint(-1, 5 * max(row))]) for row in cd.cinv_num]
        j = rng.randrange(r)
        bounds[j] = rng.randint(0, 5 * max(cd.cinv_num[j]))
        cap = rng.choice([None, Fraction(rng.randint(0, 12), rng.randint(1, 3))])
        offset = rng.choice([None, rng.randint(-4, 4)])
        sides = [min(b // row[k] for b, row in zip(bounds, cd.cinv_num) if b is not None)
                 for k in range(r)]
        want = []
        for eta in itertools.product(*(range(side + 1) for side in sides)):
            form = cd.qform(eta)
            if any(b is not None and cd.cinv_component(eta, j) > b for j, b in enumerate(bounds)):
                continue
            if cap is not None and Fraction(form, den) > cap:
                continue
            if offset is not None and (offset * den + 2 * n * cd.cinv_component(eta, 0)) % (2 * n * den):
                continue
            want.append((eta, form))
        assert list(shell(cd, offset, bounds, cap)) == want, (bounds, cap, offset)


def test_walk_needs_a_cap_or_a_row_bound():
    with pytest.raises(InvalidParams, match="a cap or a row bound"):
        list(shell(cartan(3), None))
    with pytest.raises(InvalidParams, match="a cap or a row bound"):
        list(shell(cartan(3), 0, (None, None)))
    assert list(shell(cartan(1), 0)) == [((), 0)]  # rank 0 has one vector and nothing to bound


def test_cinv_is_positive_and_the_end_rows_of_the_a_family_sum_to_one():
    # the walk's pruning needs Cinv > 0; multinom's k2 row bound needs the end-row identity
    for n in range(2, 13):
        for kind in ("a", "tadpole"):
            cd = cartan(n, kind)
            assert all(x > 0 for row in cd.cinv_num for x in row), (n, kind)
        cd = cartan(n)
        assert all(a + b == cd.cinv_den for a, b in zip(cd.cinv_num[0], cd.cinv_num[-1])), n


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
    offset = 2 * i + ell + sigma * n
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
        total = total + term.times_monomial(1, exp.numerator, exp.denominator)
    return total


def class_key(m):
    """What a weight may read of m: (m_1, m_last, m mod 2), () at rank 0."""
    return (m[0], m[-1], tuple(x % 2 for x in m)) if m else ()


def _dropping_weight(key):
    # zero when m_1 = 0, a fractional monomial of every part of the key otherwise
    if key and key[0] == 0:
        return ZERO
    m1, m_last, m_mod2 = key or (0, 0, ())
    return QPoly.monomial(1 + m1 + 2 * m_last + sum(m_mod2), Fraction(m1 + m_last, 3))


def _on_keys(weight):
    """The oracle's weight of m: weight of m's class key, 1 for None."""
    return (lambda m: ONE) if weight is None else (lambda m: weight(class_key(m)))


@pytest.mark.parametrize("kind", ["a", "tadpole"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_system_sum_matches_oracle(kind, n):
    cd = cartan(n, kind)
    r = cd.rank
    v = axis_source(r, [(1, 2), (r, 2)])
    units = [axis_source(r, [(k, 1)]) for k in range(1, r + 1)]
    nonzero = dropped = 0
    for offset in (None, 2 * n // max(n, 2)):  # 1/max(N, 2) over 2N
        solutions = box_oracle(cd, v, offset)
        dropped += sum(1 for _, m in solutions if m and m[0] == 0)
        for shift in [None] + units + [v]:
            for weight in (None, _dropping_weight):
                got = system_sum(cd, v, offset, weight, shift)
                want = system_sum_oracle(cd, solutions, _on_keys(weight), shift or (0,) * r)
                assert got == want
                nonzero += not got.is_zero()
    assert nonzero
    assert dropped or r == 0


def _parity_weight(key):
    # reads only m mod 2: zero unless m_1 is even, a monomial of the parities otherwise
    m_mod2 = key[2] if key else ()
    if m_mod2 and m_mod2[0]:
        return ZERO
    return QPoly.monomial(2 + sum(m_mod2), Fraction(len(m_mod2) - sum(m_mod2), 2))


@pytest.mark.parametrize("kind", ["a", "tadpole"])
@pytest.mark.parametrize("n", range(1, 7))
def test_class_table_matches_the_term_by_term_sum(kind, n):
    # end-node and interior sources; from rank 3 on a class holds several solutions
    cd = cartan(n, kind)
    r = cd.rank
    sources = [axis_source(r, [(1, 6), (r, 4)]), axis_source(r, [(1, 2), (2, 2), (r, 4)])]
    merged = 0
    for v in sources:
        for offset in (None, 0, 1, 2):
            sols = enumerate_admissible(cd, v, offset)
            solutions = [(s.n_vec, s.m_vec) for s in sols]
            sizes = {}
            for _, m in solutions:
                sizes[class_key(m)] = sizes.get(class_key(m), 0) + 1
            merged += any(size > 1 for size in sizes.values())
            for shift in (None, axis_source(r, [(r, 1)]), v):
                for weight in (None, _dropping_weight, _parity_weight):
                    want = system_sum_oracle(cd, solutions, _on_keys(weight), shift or (0,) * r)
                    assert system_sum(cd, v, offset, weight, shift) == want, (v, offset, shift)
                    terms = class_terms(cd, v, offset, weight, shift)
                    assert [key for key, _ in terms] == [
                        key for key in sizes if weight is None or not weight(key).is_zero()]
    assert merged or r < 3


def test_a_zero_weight_class_builds_no_binomial(monkeypatch):
    built = []
    real = lattice.qbin_vector
    monkeypatch.setattr(lattice, "qbin_vector", lambda pairs: built.append(1) or real(pairs))
    lattice._class_table.cache_clear()
    cd, v = cartan(5), (8, 0, 0, 6)
    sizes = {}
    for sol in enumerate_admissible(cd, v, None):
        sizes[class_key(sol.m_vec)] = sizes.get(class_key(sol.m_vec), 0) + 1
    first, second = [key for key, size in sizes.items() if size > 1][:2]

    def only(kept):
        return lambda key: ONE if key == kept else ZERO

    got = system_sum(cd, v, None, only(first))
    assert len(built) == sizes[first]  # the other classes built nothing
    assert got == system_sum_oracle(
        cd, [(s.n_vec, s.m_vec) for s in enumerate_admissible(cd, v, None)],
        lambda m: ONE if class_key(m) == first else ZERO, (0,) * cd.rank)
    hits = lattice._class_table.cache_info().hits
    assert system_sum(cd, v, None, only(first)) == got  # a repeated call hits the table
    assert lattice._class_table.cache_info().hits == hits + 1
    assert len(built) == sizes[first]
    system_sum(cd, v, None, only(second))  # a class kept later is built then, once
    assert len(built) == sizes[first] + sizes[second]
    system_sum(cd, v, None, lambda key: ZERO)
    assert len(built) == sizes[first] + sizes[second]


@pytest.mark.parametrize("kind", ["a", "tadpole"])
def test_rank_zero_sum_is_the_weight_where_the_offset_allows(kind, monkeypatch):
    # rank 0 skips the class table: the one solution n = () has form 0
    cd = cartan(1, kind)
    seen = []

    def fail_table(*args):
        raise AssertionError("rank 0 built a class table")

    monkeypatch.setattr(lattice, "_class_table", fail_table)
    weights = {"none": None, "zero": lambda key: seen.append(key) or ZERO,
               "nonzero": lambda key: seen.append(key) or QPoly.monomial(-3, Fraction(5, 2))}
    kept = 0
    for offset in (None, 0, 4, -2, 1, -3):
        for name, weight in weights.items():
            for shift in (None, ()):
                w = ONE if weight is None else weight(())
                want = mul(w, _class_sum(cd, enumerate_admissible(cd, (), offset), shift))
                seen.clear()
                assert system_sum(cd, (), offset, weight, shift) == want, (offset, name)
                terms = class_terms(cd, (), offset, weight, shift)
                assert terms == ([((), want)] if want else []), (offset, name)
                # each call reads the empty key once, and only where the offset allows it
                allowed = offset is None or offset % 2 == 0
                assert seen == ([(), ()] if weight and allowed else [])
                kept += bool(terms)
    assert kept == 2 * 4 * 2  # none and nonzero, at every even or absent offset, both shifts


@pytest.mark.parametrize("kind", ["a", "tadpole"])
@pytest.mark.parametrize("n", range(1, 7))
def test_plain_sum_keeps_the_uncached_weight_free_sum(kind, n):
    # random sources with negative entries; offsets None, even, odd; shift None or a unit vector
    cd, rng = cartan(n, kind), random.Random(f"plain/{kind}/{n}")
    r = cd.rank
    shifts = [None] + [axis_source(r, [(k, 1)]) for k in range(1, r + 1)]
    nonzero = 0
    for _ in range(3):
        v = axis_source(r, [(1, rng.randint(-2, 8)), (r, rng.randint(-2, 5))])
        for offset in (None, 2 * rng.randint(-3, 3), 2 * rng.randint(-3, 3) + 1):
            for shift in shifts:
                want = system_sum(cd, v, offset, shift=shift)
                assert plain_sum(cd, v, offset, shift) == want, (v, offset, shift)
                hits = plain_sum.cache_info().hits
                assert plain_sum(cd, v, offset, shift) == want
                assert plain_sum.cache_info().hits == hits + 1
                nonzero += not want.is_zero()
    assert nonzero


# --- the summation loop over i -------------------------------------------------------

def _explicit_i_sum(cd, ell, t, i_range, weight, outer, extra, shift, trunc):
    """The loop written out: system_sum or plain_sum per i, times outer(i), shifted
    by q^(i(i+ell)/N), the whole sum truncated once at the end."""
    total = ZERO
    for i in i_range:
        v = axis_source(cd.rank, [(1, 2 * i + ell), *extra])
        if weight is None:
            inner = plain_sum(cd, v, 2 * i + ell + t, shift)
        else:
            inner = system_sum(cd, v, 2 * i + ell + t, lambda key, i=i: weight(i, key), shift)
        factor = ONE if outer is None else outer(i)
        total = total + mul(factor, inner).times_monomial(1, i * (i + ell), cd.n)
    return total if trunc is None else total.truncate(trunc)


def _i_weight(i, key):
    # zero when m_1 = i mod 3, a fractional monomial of i and the key otherwise
    m1, m_last, m_mod2 = key or (0, 0, ())
    if m1 % 3 == i % 3 and key:
        return ZERO
    return QPoly.monomial(1 + i + m_last + sum(m_mod2), Fraction(m1 + i, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_i_sum_is_the_explicit_sum_of_its_terms(n):
    # ranks 0-3; outer factors that vanish at some i, a source e_r beyond e_1 with
    # the offset moved by r as at the callers, a shift, a cap
    cd = cartan(n)
    r = cd.rank
    outers = (None, lambda i: qbin(4 - i, 2), lambda i: QPoly.monomial(i - 2, Fraction(1, 3)))
    nonzero = cases = 0
    for extra, shift in (((), None), (((r, 1),), None), (((r, 1),), axis_source(r, [(r, 1)]))):
        for ell, sigma in itertools.product(range(-1, 3), (0, 1)):
            t = sigma * n + (r if extra else 0)
            if (ell + t) % 2:  # ell + t is even at every caller
                continue
            for weight, outer, trunc in itertools.product(
                    (None, _i_weight), outers, (None, Truncation(Fraction(9, 2)))):
                args = (cd, ell, t, range(-1, 6), weight, outer, extra, shift, trunc)
                got = i_sum(*args)
                assert got == _explicit_i_sum(*args), (ell, t, extra, shift, trunc)
                cases += 1
                nonzero += not got.is_zero()
                if trunc is not None and got:
                    assert got.max_exponent() <= trunc.degree_cap
    assert 10 * nonzero >= 9 * cases


def test_i_term_is_one_shifted_lattice_sum():
    cd = cartan(3)
    v = axis_source(cd.rank, [(1, 7), (2, 1)])
    want = system_sum(cd, v, 7 + 4, lambda key: _i_weight(3, key), (0, 1)).times_monomial(1, 3 * 4, 3)
    assert i_term(cd, 3, 1, 4, _i_weight, ((2, 1),), (0, 1)) == want
    assert i_term(cd, 3, 1, 4) == plain_sum(cd, (7, 0), 11).times_monomial(1, 12, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_zero_outer_factor_never_reads_the_weight(n):
    cd = cartan(n)
    calls = []

    def weight(i, key):
        calls.append(i)
        return QPoly.monomial(1, i)

    def outer(i):  # zero at odd i
        return ZERO if i % 2 else qbin(6, i)

    got = i_sum(cd, 0, 0, range(7), weight, outer)
    assert calls and set(calls) <= {0, 2, 4, 6}
    assert got == _explicit_i_sum(cd, 0, 0, range(0, 7, 2), weight, outer, (), None, None)
    calls.clear()
    assert i_sum(cd, 0, 0, range(7), weight, lambda i: ZERO) == ZERO
    assert calls == []
