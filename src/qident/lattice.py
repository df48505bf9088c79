"""Cartan matrices, admissible (m,n)-systems, and the one sum over them.

Two families are supported, both of rank N-1: the simply-laced "a" family
with Cartan matrix C_ij = 2 d_ij - d_|i-j|,1 and the "tadpole" family whose
incidence matrix carries an extra self-link at the first node.  For N = 1
the rank is zero and every bilinear form is identically zero.

Cinv is held as integer numerators cinv_num over one denominator cinv_den,
and qform (n Cinv n) and cinv_component (one entry of Cinv n) return integer
numerators over cinv_den too: no rational number is formed on the way.

A system solution pairs a nonnegative integer vector n with the derived
vector m = Cinv (v - 2n), which rewrites the defining constraint
m + n = (incidence*m + v)/2.  A solution is admissible when m is integral
and nonnegative (the support of the standard q-binomial products) and n
satisfies the caller's congruence restriction t/(2N) + (Cinv n)_1 in Z.
The integer t is the offset; every restriction in the package has this
form, with N the level of the Cartan data.

Enumeration is exhaustive by row bounds: Cinv > 0 entrywise for both
families (irreducible nonsingular M-matrices), so m = Cinv (v - 2n) >= 0 reads
(Cinv n)_j cinv_den <= floor((Cinv v)_j cinv_den / 2) on every row j, and
shell, the package's one walk over lattice vectors, prunes by exactly that.

Every fermionic sum in the package has the same inner sum over these
solutions, sum of weight(m) prod_j [m_j+n_j over n_j] q^(n Cinv n - s Cinv n),
with weight(m) a function of the class key (m_1, m_last, m mod 2) alone;
system_sum is that sum, one weight and one multiply per class, and the class
table the only loop over admissible solutions.  Each exponent is one integer
over cinv_den, from the form each solution keeps.  Kept per process, exact as
functions of hashable arguments alone: the solutions of each (cd, v, offset),
the class table of each (cd, v, offset, shift) with each class's weight-free
sum once a weight keeps it, and plain_sum of each (cd, v, offset, shift).  At
rank 0 the one solution n = () has form 0, so a weighted sum needs no table.

Most of them share one outer shape too, the paper's sum_i outer(i)
q^(i(i+ell)/N) times the sum over v = (2i+ell) e_1 + extra at offset 2i+ell+t:
i_sum is that loop and i_term its i-th term.  Its callers are burge's level-N
transforms and rr_n form, gensum (i_term, under its prefix memo), tnew_rhs,
difference_sides, limlm_sides and string_fermionic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor, lcm
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InvalidParams
from .qbinom import qbin_vector
from .qpoly import ONE, ZERO, QPoly, Truncation, mul

Offset = Optional[int]  # t in the restriction t/(2N) + (Cinv n)_1 in Z; None: unrestricted
IntVec = Tuple[int, ...]
Weight = Callable[[tuple], QPoly]  # of a class key (m_1, m_last, m mod 2); () at rank 0
IWeight = Callable[[int, tuple], QPoly]  # of i and a class key, for i_term


@dataclass(frozen=True)
class CartanData:
    """Exact matrix data for one lattice family at a fixed N."""

    n: int
    kind: str
    rank: int
    cartan: Tuple[Tuple[int, ...], ...]
    incidence: Tuple[Tuple[int, ...], ...]
    cinv_num: Tuple[Tuple[int, ...], ...]  # cinv = cinv_num / cinv_den, exact
    cinv_den: int

    def cinv_component(self, vec: Sequence[int], idx: int) -> int:
        """(Cinv vec)_{idx+1} * cinv_den in 1-based math notation; idx is 0-based."""
        return sum(r * x for r, x in zip(self.cinv_num[idx], vec))

    def qform(self, vec: Sequence[int]) -> int:
        """vec . Cinv . vec * cinv_den, an integer."""
        total = 0
        for i, row in enumerate(self.cinv_num):
            xi = vec[i]
            if xi:
                total += xi * sum(r * x for r, x in zip(row, vec))
        return total


@dataclass(frozen=True, slots=True)
class SystemSolution:
    """One n with its derived integral m = Cinv (v - 2n) and form n Cinv n * cinv_den."""

    n_vec: IntVec
    m_vec: IntVec
    form: int


def _invert_fraction_matrix(rows: Tuple[Tuple[int, ...], ...]) -> Tuple[Tuple[Fraction, ...], ...]:
    rank = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(rank)] + [Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    for col in range(rank):
        pivot = next(r for r in range(col, rank) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(rank):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[rank:]) for row in aug)


@lru_cache(maxsize=None)
def cartan(n: int, kind: str = "a") -> CartanData:
    """Construct the rank n-1 matrix data for kind "a" or "tadpole"."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind not in ("a", "tadpole"):
        raise ValueError(f"unknown kind {kind!r}")
    rank = n - 1
    if kind == "a":
        c = tuple(
            tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank))
            for i in range(rank)
        )
    else:
        inc = tuple(
            tuple((1 if abs(i - j) == 1 else 0) + (1 if i == j == 0 else 0) for j in range(rank))
            for i in range(rank)
        )
        c = tuple(tuple(2 * int(i == j) - inc[i][j] for j in range(rank)) for i in range(rank))
    incidence = tuple(tuple(2 * int(i == j) - c[i][j] for j in range(rank)) for i in range(rank))
    if rank == 0:
        return CartanData(n, kind, 0, (), (), (), 1)
    if kind == "a":
        # closed form: cinv_ij = min(i,j) - i*j/n in 1-based indexing
        den = n
        num = tuple(
            tuple(min(i + 1, j + 1) * n - (i + 1) * (j + 1) for j in range(rank))
            for i in range(rank)
        )
    else:
        inv = _invert_fraction_matrix(c)
        den = lcm(*(entry.denominator for row in inv for entry in row))
        num = tuple(tuple(int(entry * den) for entry in row) for row in inv)
    return CartanData(n, kind, rank, c, incidence, num, den)


def solve_system(cd: CartanData, n_vec: Sequence[int], v: Sequence[int],
                 form: Optional[int] = None) -> Optional[SystemSolution]:
    """Derive m = Cinv (v - 2n), None unless integral; form is n's qform, if the caller has it."""
    w = tuple(a - 2 * b for a, b in zip(v, n_vec))
    den = cd.cinv_den
    m = []
    for row in cd.cinv_num:
        u = sum(r * x for r, x in zip(row, w))
        if u % den:
            return None
        m.append(u // den)
    return SystemSolution(tuple(n_vec), tuple(m), cd.qform(n_vec) if form is None else form)


def shell(
    cd: CartanData, offset: Offset, bounds: Sequence[Optional[int]] = (), cap=None
) -> Iterator[Tuple[IntVec, int]]:
    """(eta, eta Cinv eta * cinv_den) for eta >= 0, in lexicographic order, with
    offset/(2N) + (Cinv eta)_1 in Z (offset None: unrestricted), form <= cap if
    a cap is given, and (Cinv eta)_{j+1} cinv_den <= bounds[j] for each bound
    not None.

    Depth first, carrying the prefix's integer row values and form.  Cinv > 0
    (guarded below) makes them lower bounds on every completion's, growing with
    the last value, so each loop stops at the first value past a bound
    (U. Fincke, M. Pohst, Math. Comp. 44, 1985); a cap or one row bound bounds
    every coordinate.
    """
    rank, two_n = cd.rank, 2 * cd.n
    if rank == 0:
        if offset is None or offset % two_n == 0:
            yield (), 0
        return
    num, den = cd.cinv_num, cd.cinv_den
    if any(x <= 0 for row in num for x in row):
        raise InvalidParams("the pruned walk needs Cinv > 0 entrywise")
    rows = [(j, b) for j, b in enumerate(bounds) if b is not None]
    if cap is None and not rows:
        raise InvalidParams("the walk needs a cap or a row bound")
    limit = None if cap is None else floor(cap * den)
    mod, last = two_n * den, rank - 1
    vec = [0] * rank

    def walk(pos: int, vals: List[int], form: int) -> Iterator[Tuple[IntVec, int]]:
        # vals[j] = (Cinv prefix)_{j+1} * den; column pos of Cinv is row pos, by symmetry
        col, diag, cross = num[pos], num[pos][pos], 2 * vals[pos]
        top = min((b - vals[j]) // col[j] for j, b in rows) if rows else None
        x, grown = 0, form
        while (top is None or x <= top) and (limit is None or grown <= limit):
            vec[pos] = x
            if pos < last:
                yield from walk(pos + 1, vals, grown)
            elif offset is None or (offset * den + two_n * vals[0]) % mod == 0:
                yield tuple(vec), grown
            x += 1
            vals = [a + c for a, c in zip(vals, col)]
            grown = form + x * (x * diag + cross)
        vec[pos] = 0

    yield from walk(0, [0] * rank, 0)


@lru_cache(maxsize=None)
def _enumerate_cached(cd: CartanData, v: IntVec, offset: Offset) -> Tuple[SystemSolution, ...]:
    if offset is not None and type(offset) is not int:
        raise TypeError(f"offset must be an int numerator over 2N, got {offset!r}")
    # m = Cinv (v - 2n) >= 0, row by row
    bounds = tuple(cd.cinv_component(v, j) // 2 for j in range(cd.rank))
    sols = (solve_system(cd, n_vec, v, form) for n_vec, form in shell(cd, offset, bounds))
    return tuple(sol for sol in sols if sol is not None)


def enumerate_admissible(cd: CartanData, v: Sequence[int], offset: Offset) -> Tuple[SystemSolution, ...]:
    """All admissible solutions with n, m >= 0, in lexicographic n order."""
    return _enumerate_cached(cd, tuple(v), offset)


@lru_cache(maxsize=None)
def _class_table(cd: CartanData, v: IntVec, offset: Offset, shift: Optional[IntVec]) -> dict:
    """class key -> its solutions, replaced by their weight-free sum when a weight keeps them (rank >= 1)."""
    classes: Dict[tuple, list] = {}
    patterns: Dict[IntVec, IntVec] = {}  # one tuple per parity pattern
    for sol in enumerate_admissible(cd, v, offset):
        m, odd = sol.m_vec, tuple(x & 1 for x in sol.m_vec)
        classes.setdefault((m[0], m[-1], patterns.setdefault(odd, odd)), []).append(sol)
    return {key: tuple(sols) for key, sols in classes.items()}


def _class_sum(cd: CartanData, sols: Sequence[SystemSolution], shift: Optional[IntVec]) -> QPoly:
    # shift Cinv n = (Cinv shift) . n, Cinv symmetric
    row = [cd.cinv_component(shift, j) for j in range(cd.rank)] if shift else [0] * cd.rank
    total = ZERO
    for sol in sols:
        exp = sol.form - sum(a * b for a, b in zip(row, sol.n_vec))
        total = total + qbin_vector(zip(sol.m_vec, sol.n_vec)).times_monomial(1, exp, cd.cinv_den)
    return total


def class_terms(cd: CartanData, v: Sequence[int], offset: Offset, weight: Optional[Weight] = None,
                shift: Optional[Sequence[int]] = None) -> List[Tuple[tuple, QPoly]]:
    """system_sum's terms: (key, weight(key) times the class's weight-free sum) for
    each class of nonzero weight, in the order of the classes' first solutions."""
    if not cd.rank:  # n = () alone, of form 0, where the offset allows it
        if offset is not None and offset % (2 * cd.n):
            return []
        w = ONE if weight is None else weight(())
        return [((), w)] if w else []
    shift = tuple(shift) if shift is not None and any(shift) else None
    classes = _class_table(cd, tuple(v), offset, shift)  # shift None or nonzero
    terms = []
    for key, part in classes.items():
        w = ONE if weight is None else weight(key)
        if w.is_zero():
            continue
        if type(part) is tuple:
            part = classes[key] = _class_sum(cd, part, shift)
        terms.append((key, part if weight is None else mul(w, part)))
    return terms


def system_sum(cd: CartanData, v: Sequence[int], offset: Offset, weight: Optional[Weight] = None,
               shift: Optional[Sequence[int]] = None) -> QPoly:
    """Sum over admissible (m, n) of weight(key) prod_j [m_j+n_j over n_j] q^(n Cinv n - shift Cinv n).

    The key of m is (m_1, m_last, m mod 2), or () at rank 0: a weight sees m
    only through it, once per class of solutions sharing it, and a class of
    zero weight builds no binomial.  weight defaults to 1, shift to 0; offset
    is t in the restriction t/(2N) + (Cinv n)_1 in Z, or None.
    """
    return sum((term for _, term in class_terms(cd, v, offset, weight, shift)), ZERO)


@lru_cache(maxsize=None)
def plain_sum(cd: CartanData, v: IntVec, offset: Offset, shift: Optional[IntVec] = None) -> QPoly:
    """system_sum with weight 1, kept per process on its (hashable) arguments;
    all solutions as one class, so no class table is kept beside it."""
    return _class_sum(cd, enumerate_admissible(cd, v, offset), shift)


def i_term(cd: CartanData, i: int, ell: int, t: int, weight: Optional[IWeight] = None,
           extra: Sequence[Tuple[int, int]] = (), shift: Optional[IntVec] = None) -> QPoly:
    """q^(i(i+ell)/N) times the sum over v = (2i+ell) e_1 + extra at offset 2i+ell+t,
    weighted by weight(i, key), or plain_sum's when there is no weight."""
    v = axis_source(cd.rank, [(1, 2 * i + ell), *extra])
    offset = 2 * i + ell + t
    if weight is not None:
        inner = system_sum(cd, v, offset, lambda key: weight(i, key), shift)
    else:  # three arguments when shift-free: the cache key series._gamma_delta's calls share
        inner = plain_sum(cd, v, offset) if shift is None else plain_sum(cd, v, offset, shift)
    return inner.times_monomial(1, i * (i + ell), cd.n)


def i_sum(cd: CartanData, ell: int, t: int, i_range: Iterable[int], weight: Optional[IWeight] = None,
          outer: Optional[Callable[[int], QPoly]] = None, extra: Sequence[Tuple[int, int]] = (),
          shift: Optional[IntVec] = None, trunc: Optional[Truncation] = None) -> QPoly:
    """sum over i in i_range of outer(i) i_term(cd, i, ell, t, weight, extra, shift), outer
    1 by default, each product capped at trunc; an i of zero outer factor builds no inner sum."""
    total = ZERO
    for i in i_range:
        factor = ONE if outer is None else outer(i)
        if factor.is_zero():
            continue
        term = i_term(cd, i, ell, t, weight, extra, shift)
        if not term.is_zero():
            total = total + mul(factor, term, trunc)
    return total


def axis_source(rank: int, pairs: Sequence[Tuple[int, int]]) -> IntVec:
    """Source vector sum_k a_k e_{i_k} from (index_1based, value) pairs.

    Out-of-range indices contribute nothing; coinciding indices add up
    (the rank-1 case where e_1 and e_{N-1} are the same axis).
    """
    v = [0] * rank
    for idx, val in pairs:
        if 1 <= idx <= rank:
            v[idx - 1] += val
    return tuple(v)
