"""Cartan matrices, admissible (m,n)-systems, and the one sum over them.

Two families are supported, both of rank N-1: the simply-laced "a" family
with Cartan matrix C_ij = 2 d_ij - d_|i-j|,1 and the "tadpole" family whose
incidence matrix carries an extra self-link at the first node.  For N = 1
the rank is zero and every bilinear form is identically zero.

A system solution pairs a nonnegative integer vector n with the derived
vector m = Cinv (v - 2n), which rewrites the defining constraint
m + n = (incidence*m + v)/2.  A solution is admissible when m is integral
and nonnegative (the support of the standard q-binomial products) and n
satisfies the caller's congruence restriction offset + (Cinv n)_1 in Z.

Enumeration is exhaustive over a proven region: summing the constraint over
all components gives 2*sum(n) + (column-sum weights of m) = sum(v) with
nonnegative weights, hence sum(n) <= floor(sum(v)/2).

Every fermionic sum in the package has the same inner sum over these
solutions, sum of weight(m) prod_j [m_j+n_j over n_j] q^(n Cinv n - s Cinv n);
system_sum is that sum, and the only loop over admissible solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

from .qbinom import qbin_vector
from .qpoly import ZERO, QPoly, mul

Offset = Union[int, Fraction, None]
IntVec = Tuple[int, ...]


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

    def cinv_entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.cinv_num[i][j], self.cinv_den)

    def cinv_component(self, vec: Sequence[int], idx: int) -> Fraction:
        """(Cinv vec)_{idx+1} in 1-based math notation; idx is 0-based."""
        row = self.cinv_num[idx]
        return Fraction(sum(r * x for r, x in zip(row, vec)), self.cinv_den)

    def first_component(self, vec: Sequence[int]) -> Fraction:
        """(Cinv vec)_1; zero for rank 0."""
        if self.rank == 0:
            return Fraction(0)
        return self.cinv_component(vec, 0)

    def qform(self, vec: Sequence[int]) -> Fraction:
        """vec . Cinv . vec as an exact rational."""
        total = 0
        for i, row in enumerate(self.cinv_num):
            xi = vec[i]
            if xi:
                total += xi * sum(r * x for r, x in zip(row, vec))
        return Fraction(total, self.cinv_den)


@dataclass(frozen=True)
class SystemSolution:
    """One n with its derived integral m = Cinv (v - 2n)."""

    n_vec: IntVec
    m_vec: IntVec


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


def restriction_holds(cd: CartanData, n_vec: Sequence[int], offset: Union[int, Fraction]) -> bool:
    """offset + (Cinv n)_1 in Z."""
    total = Fraction(offset) + cd.first_component(tuple(n_vec))
    return total.denominator == 1


def solve_system(cd: CartanData, n_vec: Sequence[int], v: Sequence[int]) -> Optional[SystemSolution]:
    """Derive m = Cinv (v - 2n); None unless every component is integral."""
    if cd.rank == 0:
        return SystemSolution((), ())
    w = tuple(a - 2 * b for a, b in zip(v, n_vec))
    den = cd.cinv_den
    m = []
    for row in cd.cinv_num:
        u = sum(r * x for r, x in zip(row, w))
        if u % den:
            return None
        m.append(u // den)
    return SystemSolution(tuple(n_vec), tuple(m))


def _vectors_summing_at_most(rank: int, budget: int) -> Iterator[IntVec]:
    if rank == 0:
        yield ()
        return
    if rank == 1:
        for x in range(budget + 1):
            yield (x,)
        return
    for first in range(budget + 1):
        for rest in _vectors_summing_at_most(rank - 1, budget - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _enumerate_cached(cd: CartanData, v: IntVec, offset: Offset) -> Tuple[SystemSolution, ...]:
    if cd.rank == 0:
        ok = offset is None or Fraction(offset).denominator == 1
        return (SystemSolution((), ()),) if ok else ()
    budget = sum(v)
    if budget < 0:
        return ()
    out = []
    den = cd.cinv_den
    row1 = cd.cinv_num[0]
    if offset is not None:
        off = Fraction(offset)
        off_num, off_den = off.numerator, off.denominator
        mod = off_den * den
    for n_vec in _vectors_summing_at_most(cd.rank, budget // 2):
        if offset is not None:
            dot1 = sum(r * x for r, x in zip(row1, n_vec))
            if (off_num * den + off_den * dot1) % mod:
                continue
        sol = solve_system(cd, n_vec, v)
        if sol is not None and all(x >= 0 for x in sol.m_vec):
            out.append(sol)
    return tuple(out)


def enumerate_admissible(cd: CartanData, v: Sequence[int], offset: Offset) -> Tuple[SystemSolution, ...]:
    """All admissible solutions with n, m >= 0, in lexicographic n order."""
    return _enumerate_cached(cd, tuple(v), offset)


def system_sum(
    cd: CartanData,
    v: Sequence[int],
    offset: Offset,
    weight: Optional[Callable[[IntVec], QPoly]] = None,
    shift: Optional[Sequence[int]] = None,
) -> QPoly:
    """Sum over admissible (m, n) of weight(m) prod_j [m_j+n_j over n_j] q^(n Cinv n - shift Cinv n).

    weight defaults to 1 and shift to the zero vector.  A solution whose
    weight is zero is dropped before its binomials are built.
    """
    den = cd.cinv_den
    shift_row = None
    if shift is not None and any(shift):
        # shift . Cinv as numerators over cinv_den
        shift_row = tuple(sum(s * row[j] for s, row in zip(shift, cd.cinv_num)) for j in range(cd.rank))
    total = ZERO
    for sol in enumerate_admissible(cd, v, offset):
        if weight is not None:
            w = weight(sol.m_vec)
            if w.is_zero():
                continue
        term = qbin_vector(zip(sol.m_vec, sol.n_vec))
        if term.is_zero():
            continue
        if weight is not None:
            term = mul(w, term)
        exp = cd.qform(sol.n_vec)
        if shift_row is not None:
            exp -= Fraction(sum(a * b for a, b in zip(shift_row, sol.n_vec)), den)
        total = total + term.times_monomial(1, exp)
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
