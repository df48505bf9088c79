"""Exact sparse arithmetic for Laurent polynomials in q with rational exponents.

A polynomial is a finite sum  sum_k c_k * q^(k/den)  with nonzero integer
coefficients c_k, integer keys k and one positive integer denominator den.
It is stored as the pair (den, {k: c_k}) under three canonical rules: a zero
coefficient is never stored, den is minimal (gcd(den, every key) == 1), and
the zero polynomial has den 1.  Canonical form makes structural equality of
the pairs identical to mathematical equality of the polynomials, which is
what every identity check in this package relies on.  Every operation works
on the integer keys over a common denominator and reduces once at the end,
so no rational number is ever a dict key.  Exponents are read and written
as an int when integral, a Fraction otherwise; times_monomial alone takes
an integer numerator and denominator, the form its callers already hold.

Truncation is inclusive: Truncation(D) keeps exactly the terms with
exponent <= D, that is the keys k <= floor(D*den).  Every truncated
operation equals the exact operation followed by a final truncation.
A truncated product of factors (1 + c q^e)^(+-1), c = +-1, is one dense list
of the degrees 0..D and one pass over it per factor (series_product):
multiply descending, divide ascending.  Each pass reads only lower degrees,
so the list cut at D stays exact.

No operation changes a polynomial, so the first dense multiply it meets
keeps a view of it (see _operand), which cannot go stale and dies with it.
A view steps by the gcd of its key gaps, so a q^(1/N) sum whose keys lie in
one class mod N is as dense as an integer one.  A sum of products (dot) is
packed, accumulated in one integer per step and class, and unpacked once,
its slot width sized by the bound of the whole sum, not of one product.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, index, sub
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from .errors import InvalidParams, NonPolynomial

Exponent = Union[int, Fraction]
ExponentLike = Union[int, Fraction]
Terms = Dict[int, int]


def _split(e: ExponentLike) -> Tuple[int, int]:
    """e as (numerator, denominator) in lowest terms."""
    if type(e) is int:
        return e, 1
    if isinstance(e, bool):
        raise TypeError("bool is not a valid exponent")
    if isinstance(e, (int, Fraction)):
        return int(e.numerator), int(e.denominator)
    raise TypeError(f"exponent must be int or Fraction, got {type(e).__name__}")


def _exp(k: int, den: int) -> Exponent:
    """k/den as an int when integral, a Fraction otherwise."""
    return k // den if k % den == 0 else Fraction(k, den)


def _cap_key(cap: Exponent, den: int) -> int:
    """floor(cap * den): the largest key at or below the cap."""
    return cap * den if type(cap) is int else cap.numerator * den // cap.denominator


def norm_rat(x) -> Exponent:
    """x as an exact rational: an int when integral, a Fraction otherwise."""
    if type(x) is int:
        return x
    f = x if type(x) is Fraction else Fraction(x)
    return f.numerator if f.denominator == 1 else f


def half_int(double: int, what: str) -> int:
    """double/2 as an int; InvalidParams names `what` and the half when double is odd."""
    if double & 1:
        raise InvalidParams(f"{what} must be an integer, got {Fraction(double, 2)}")
    return double >> 1


def twice(x, what: str) -> int:
    """2x as an int for an int or Fraction x; InvalidParams names `what` unless 2x is integral."""
    if 2 % x.denominator:
        raise InvalidParams(f"{what} must be a multiple of 1/2, got {x}")
    return 2 * x.numerator // x.denominator


class QPoly:
    """Sparse Laurent polynomial in q over the integers."""

    __slots__ = ("_den", "_terms", "_view")  # _view: see _operand

    def __init__(self, terms: Union[Mapping[ExponentLike, int], Iterable[Tuple[ExponentLike, int]], None] = None):
        parts = []
        for e, c in (terms.items() if isinstance(terms, Mapping) else terms or ()):
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError("coefficients must be int")
            if c:
                parts.append((*_split(e), c))
        den = math.lcm(*(d for _, d, _ in parts))
        data: Terms = {}
        for n, d, c in parts:
            k = n * (den // d)
            data[k] = data.get(k, 0) + c
        p = _make(den, {k: c for k, c in data.items() if c})
        self._den, self._terms, self._view = p._den, p._terms, None

    @classmethod
    def monomial(cls, coeff: int, exp: ExponentLike = 0) -> "QPoly":
        n, d = _split(exp)
        return _make(d, {n: coeff} if coeff else {})

    def items(self) -> Iterator[Tuple[Exponent, int]]:
        den = self._den
        if den == 1:
            return iter(self._terms.items())
        return ((_exp(k, den), c) for k, c in self._terms.items())

    def coeff(self, exp: ExponentLike) -> int:
        n, d = _split(exp)
        if self._den % d:
            return 0
        return self._terms.get(n * (self._den // d), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def min_exponent(self) -> Exponent:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return _exp(min(self._terms), self._den)

    def max_exponent(self) -> Exponent:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return _exp(max(self._terms), self._den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self._den == other._den and self._terms == other._terms
        if isinstance(other, int) and not isinstance(other, bool):
            if other == 0:
                return not self._terms
            return self._terms == {0: other}
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __neg__(self) -> "QPoly":
        return _make(self._den, {k: -c for k, c in self._terms.items()})

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        return _combine(self, other, 1)

    def __sub__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        return _combine(self, other, -1)

    def __mul__(self, other: Union["QPoly", int]) -> "QPoly":
        if isinstance(other, QPoly):
            return mul(self, other)
        if isinstance(other, int) and not isinstance(other, bool):
            return _make(self._den, {k: c * other for k, c in self._terms.items()} if other else {})
        return NotImplemented

    __rmul__ = __mul__

    def times_monomial(self, coeff: int, num: int, den: int = 1) -> "QPoly":
        """Multiply by coeff * q^(num/den) without a general convolution.

        The exponent is an int numerator (TypeError otherwise) over a positive
        int denominator, reduced or not; an integer exponent shifts every key
        by num * self._den without forming a common denominator.
        """
        if coeff == 0:
            return ZERO
        own = self._den
        if den == 1 and num.__class__ is int:
            shift = num * own
            return _make(own, {k + shift: c * coeff for k, c in self._terms.items()})
        new = math.lcm(own, den)
        scale, shift = new // own, index(num) * (new // den)
        return _make(new, {k * scale + shift: c * coeff for k, c in self._terms.items()})

    def truncate(self, trunc: "Truncation") -> "QPoly":
        cap = _cap_key(trunc.degree_cap, self._den)
        return _make(self._den, {k: c for k, c in self._terms.items() if k <= cap})

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"QPoly({render(self)})"


def _make(den: int, data: Terms) -> QPoly:
    """The polynomial with terms c q^(k/den) for k: c in data (no zero c), den made minimal."""
    if den != 1:
        g = den
        for k in data:
            g = math.gcd(g, k)
            if g == 1:
                break
        else:
            den, data = den // g, {k // g: c for k, c in data.items()}
    p = object.__new__(QPoly)
    p._den, p._terms, p._view = den, data, None
    return p


def _common(a: QPoly, b: QPoly) -> Tuple[int, Terms, Terms]:
    """lcm(den_a, den_b) and both key dicts over it."""
    da, db = a._den, b._den
    if da == db:
        return da, a._terms, b._terms
    den = math.lcm(da, db)
    ta = a._terms if da == den else {k * (den // da): c for k, c in a._terms.items()}
    tb = b._terms if db == den else {k * (den // db): c for k, c in b._terms.items()}
    return den, ta, tb


def _combine(a: QPoly, b: QPoly, sign: int) -> QPoly:
    """a + sign*b."""
    den, ta, tb = _common(a, b)
    out = dict(ta)
    get = out.get
    for k, c in tb.items():
        v = get(k, 0) + sign * c
        if v:
            out[k] = v
        else:
            del out[k]
    return _make(den, out)


@dataclass(frozen=True)
class Truncation:
    """Inclusive degree cap: keep terms with exponent <= degree_cap."""

    degree_cap: Exponent

    def __post_init__(self) -> None:
        cap = _exp(*_split(self.degree_cap))
        if cap < 0:
            raise ValueError("degree cap must be >= 0")
        object.__setattr__(self, "degree_cap", cap)


# A product of two dense operands (key span under _DENSE_SPAN times the
# length, in steps) whose term pairs outnumber _PAIRS_PER_TERM times its terms
# is one big-integer multiply: that costs a few pair steps per term, where the
# schoolbook convolution costs one per pair.
_DENSE_SPAN = 2
_PAIRS_PER_TERM = 5

# the array typecode of an unsigned machine word, by its size in bytes; words
# are read as little-endian slots, so a big-endian host packs every slot biased
_WORD = {size: next(c for c in "BHILQ" if array(c).itemsize == size)
         for size in (1, 2, 4, 8)} if sys.byteorder == "little" else {}


def mul(a: QPoly, b: QPoly, trunc: Truncation | None = None) -> QPoly:
    """Exact convolution product; with trunc, terms above the cap are dropped."""
    if not a._terms or not b._terms:
        return ZERO
    if len(a._terms) > len(b._terms):
        a, b = b, a
    if trunc is None and a._terms == ONE._terms:  # {0: 1} forces den 1
        return b
    if len(a._terms) * len(b._terms) > _PAIRS_PER_TERM * (len(a._terms) + len(b._terms)):
        den, va, vb = _dense_pair(a, b)
        if va:
            return _make(den, _product(va, vb, None if trunc is None else _cap_key(trunc.degree_cap, den)))
    den, ta, tb = _common(a, b)
    top = max(ta) + max(tb)
    if trunc is not None:
        top = min(top, _cap_key(trunc.degree_cap, den))
    out = {}
    get = out.get
    for ea, ca in ta.items():
        lim = top - ea
        for eb, cb in tb.items():
            if eb <= lim:
                e = ea + eb
                v = get(e, 0) + ca * cb
                if v:
                    out[e] = v
                else:
                    del out[e]
    return _make(den, out)


def dot(pairs: Iterable[Tuple[QPoly, QPoly]], trunc: Truncation | None = None) -> QPoly:
    """sum a*b over the pairs, less the terms above trunc's cap.  Every pair of dense
    operands, however small, joins one packed sum (_kronecker) per denominator,
    step and class of lowest keys modulo the step, which saves it a merge of its
    terms too; the rest go through mul."""
    total, dense = ZERO, {}  # (den, step, lowest key mod step) -> [(view of a, view of b)]
    for a, b in pairs:
        den, va, vb = _dense_pair(a, b) if a._terms and b._terms else (1, (), ())
        if va:
            dense.setdefault((den, va[1], (va[0] + vb[0]) % va[1]), []).append((va, vb))
        else:
            total = total + mul(a, b, trunc)
    for (den, _, _), views in dense.items():
        total = total + _make(den, _kronecker(views, None if trunc is None else _cap_key(trunc.degree_cap, den)))
    return total


def _dense_pair(a: QPoly, b: QPoly) -> Tuple[int, Tuple, Tuple]:
    """(den, view of a, view of b) over their common den and at one step, or
    (den, (), ()) when an operand is sparse; views of two steps spread to the gcd."""
    den = a._den if a._den == b._den else math.lcm(a._den, b._den)
    va = _operand(a, den)
    vb = va and _operand(b, den)
    if vb and va[1] != vb[1]:
        step = math.gcd(va[1], vb[1])
        va, vb = _spread(va, step), _spread(vb, step)
    return (den, va, vb) if va and vb else (den, (), ())


def _spread(view: Tuple, step: int) -> Tuple:
    """view at a step dividing its own, zeros between its coefficients, or () if
    that leaves it sparse; a spread view serves one product and keeps no pack."""
    gap, cs = view[1] // step, view[2]
    if gap == 1 or gap * (len(cs) - 1) >= _DENSE_SPAN * len(cs):
        return view if gap == 1 else ()
    spread = [0] * (gap * (len(cs) - 1) + 1)
    spread[::gap] = cs
    return view[0], step, spread, view[3], view[4], {}  # zeros move no sign or magnitude test


def _operand(p: QPoly, den: int) -> Tuple:
    """p as a dense operand over den, a multiple of its own denominator: (lowest
    key, step, the coefficients at lowest + step*j, least and greatest one,
    {slot width: packed coefficients}), or () for sparse keys; the step is the
    gcd of the key gaps.  Built once over p's own den and kept in p._view; over
    a finer den its lowest key and step scale, its lists and packs are shared."""
    view = p._view
    if view is None:
        terms = p._terms
        lo, hi, step = min(terms), max(terms), 0
        for k in terms:  # a step-1 polynomial stops at its second key
            step = math.gcd(step, k - lo)
            if step == 1:
                break
        view = ()
        if hi - lo < _DENSE_SPAN * len(terms) * step:
            cs = list(map(terms.get, range(lo, hi + 1, step), repeat(0)))
            view = lo, step, cs, min(cs), max(cs), {}
        p._view = view
    if den == p._den or not view:
        return view
    scale = den // p._den
    return (view[0] * scale, view[1] * scale) + view[2:]


def _packed(view: Tuple, width: int, count: int) -> int:
    """sum c_j * 2**(8*width*j) over the first `count` coefficients; the view
    keeps the value of its whole list per width, never that of a clipped one."""
    cs, packs = view[2], view[5]
    if count == len(cs) and width in packs:
        return packs[width]
    clipped = cs[:count]
    if view[3] >= 0 and width in _WORD:  # machine words, packed in C
        value = int.from_bytes(array(_WORD[width], clipped).tobytes(), "little")
    else:  # each slot biased by half to be nonnegative, the biases taken off at once
        half, slot = 1 << (8 * width - 1), bytes(width - 1) + b"\x80"  # `half` in one slot
        raw = b"".join((c + half).to_bytes(width, "little") for c in clipped)
        value = int.from_bytes(raw, "little") - int.from_bytes(slot * count, "little")
    if count == len(cs):
        packs[width] = value
    return value


def _clip(va: Tuple, vb: Tuple, cap: Optional[int]) -> Tuple[int, int, int, int, int]:
    """(lowest key, product slots to the cap, slots of a and b reaching them, slot bound)."""
    ca, cb = va[2], vb[2]
    low, n = va[0] + vb[0], len(ca) + len(cb) - 1
    if cap is not None and cap - low < va[1] * (n - 1):
        n = (cap - low) // va[1] + 1
    len_a, len_b = min(len(ca), n), min(len(cb), n)
    return low, n, len_a, len_b, max(va[4], -va[3]) * max(vb[4], -vb[3]) * min(len_a, len_b)


def _slot(bound: int, signed: bool) -> Tuple[int, bool]:
    """(bytes per slot, whether slots are unsigned machine words) for |slots| <= bound."""
    for width in () if signed else _WORD:
        if bound >> (8 * width) == 0:
            return width, True
    return (bound.bit_length() + 2 + 7) // 8, False


def _unpack(total: int, base: int, step: int, n: int, width: int, words: bool, mask: bool) -> Terms:
    """The nonzero among the first n slots of total at keys base + step*j; mask: drop the rest."""
    if not words:  # `half` in each slot
        total += int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    raw = (total & ((1 << (8 * width * n)) - 1) if mask else total).to_bytes(width * n, "little")
    if words:
        vals = memoryview(raw).cast(_WORD[width]).tolist()
    else:
        half = 1 << (8 * width - 1)
        vals = [int.from_bytes(raw[i:i + width], "little") - half for i in range(0, width * n, width)]
    if 0 in vals:
        return {base + step * j: v for j, v in enumerate(vals) if v}
    return dict(zip(range(base, base + step * n, step), vals))


def _product(va: Tuple, vb: Tuple, cap: Optional[int]) -> Terms:
    """_kronecker of the one pair, with no list of pairs, no shift and, below the cap, no mask."""
    low, n, len_a, len_b, bound = _clip(va, vb, cap)
    if n <= 0:
        return {}
    width, words = _slot(bound, va[3] < 0 or vb[3] < 0)
    total = _packed(va, width, len_a) * _packed(vb, width, len_b)
    return _unpack(total, low, va[1], n, width, words, len_a + len_b > n + 1)


def _kronecker(pairs: List[Tuple[Tuple, Tuple]], cap: Optional[int]) -> Terms:
    """Keys of sum a*b up to the cap key, if any, over pairs of views of one step
    whose lowest keys agree modulo it.

    Kronecker substitution (D. Harvey, J. Symbolic Comput. 44, 2009): an
    operand, clipped to the coefficients that can reach the cap, packs into one
    integer whose slot j, of fixed width, holds its coefficient at lowest key +
    step*j; one integer multiply gives every product coefficient, and the
    products, each shifted by its lowest key in steps, add into one integer,
    unpacked once.  No slot of it exceeds bound = the sum over the pairs of
    max|a| * max|b| * min(len a, len b).  Nonnegative operands take the smallest
    machine word (1, 2, 4 or 8 bytes) that holds bound: nothing carries, so they
    pack and the sum unpacks in C.  Otherwise the slot is wider than twice
    bound, and half the slot range added to each slot makes the sum
    nonnegative, so no borrow crosses a slot.  The sign test and max|.| read the
    whole operand's view, so it packs to one value per width; a clipped pack may
    take a wider or biased slot than it needs, which costs time, never a sum.
    """
    step, clips, bound, signed, base, top = pairs[0][0][1], [], 0, False, math.inf, -math.inf
    for va, vb in pairs:
        low, n, len_a, len_b, most = _clip(va, vb, cap)
        if n > 0:  # the coefficients that reach the cap
            bound, signed = bound + most, signed or va[3] < 0 or vb[3] < 0
            base, top = low if low < base else base, low + step * n if low + step * n > top else top
            clips.append((low, va, len_a, vb, len_b))
    if not clips:
        return {}
    width, words = _slot(bound, signed)
    total = 0
    for low, va, len_a, vb, len_b in clips:
        total += (_packed(va, width, len_a) * _packed(vb, width, len_b)) << (8 * width * ((low - base) // step))
    return _unpack(total, base, step, (top - base) // step, width, words, cap is not None)


def from_dense(coeffs: List[int]) -> QPoly:
    """sum_e coeffs[e] q^e, from a list of integer coefficients."""
    return _make(1, {e: c for e, c in enumerate(coeffs) if c})


def prod(polys: Iterable[QPoly], trunc: Truncation | None = None) -> QPoly:
    """Product of several polynomials, smallest factors first."""
    result = ONE
    for f in sorted(polys, key=len):
        if not f:
            return ZERO
        result = mul(result, f, trunc)
    return result


def truncated_equal(a: QPoly, b: QPoly, trunc: Truncation) -> bool:
    """Compare exactly the terms with exponent <= degree cap."""
    return a.truncate(trunc) == b.truncate(trunc)


ZERO = _make(1, {})
ONE = _make(1, {0: 1})


@lru_cache(maxsize=None)
def qpoch(s: int, m: int) -> QPoly:
    """Finite q-shifted factorial (q^s; q)_m = prod_{k=0}^{m-1} (1 - q^{s+k})."""
    if not isinstance(s, int) or not isinstance(m, int):
        raise TypeError("qpoch takes integer arguments")
    if m < 0:
        raise ValueError("qpoch length must be >= 0")
    if s <= 0 < s + m:
        return ZERO  # the factor 1 - q^0 appears
    out = ONE
    for k in range(m):
        out = mul(out, QPoly({0: 1, s + k: -1}))
    return out


def series_product(factors: Iterable[Tuple[int, int, int]], trunc: Truncation, start: QPoly = ONE) -> QPoly:
    """start * prod (1 + c q^e)^power modulo the cap, over the factors (e, c, power)
    with e >= 1 and c, power in {1, -1}; start has nonnegative integer exponents.
    Each pass (see the module docstring) runs over list slices, not degree by degree."""
    terms = start._terms
    if start._den != 1 or (terms and min(terms) < 0):
        raise NonPolynomial("series_product needs nonnegative integer exponents")
    d = math.floor(trunc.degree_cap)
    c = list(map(terms.get, range(d + 1), repeat(0)))
    for e, sign, power in factors:
        if e < 1 or sign not in (1, -1) or power not in (1, -1):
            raise ValueError(f"not a factor (1 + c q^e)^power with e >= 1: {(e, sign, power)}")
        op = add if sign == power else sub  # c[n] op= c[n-e]
        if power == 1:  # every degree from the list before the pass, as a descending pass reads it
            c[e:] = map(op, c[e:], c)
        else:  # ascending, each block of e degrees from the finished block below it
            for n in range(e, d + 1, e):
                c[n:n + e] = map(op, c[n:n + e], c[n - e:n])
    return from_dense(c)


# (s, floor(cap)) -> [1/(q^s; q)_k for k = 0, 1, ...], each modulo q^(floor(cap)+1)
_INV_QPOCH: Dict[Tuple[int, int], List[QPoly]] = {}


def inv_qpoch(s: int, k: int, trunc: Truncation) -> QPoly:
    """1/(q^s; q)_k modulo the cap, for s >= 1; zero for k < 0.

    Each rung of the ladder 1/(q^s;q)_k = 1/(q^s;q)_{k-1} / (1 - q^(s+k-1)) is
    one series_product pass, memoized per (s, D) with D = floor(cap);
    factors with s+k-1 > D are 1 modulo q^(D+1), so k is clamped there.
    """
    if s < 1:
        raise ValueError("inv_qpoch needs s >= 1")
    if k < 0:
        return ZERO
    d = math.floor(trunc.degree_cap)
    k = min(k, max(0, d - s + 1))
    ladder = _INV_QPOCH.setdefault((s, d), [ONE])
    while len(ladder) <= k:
        ladder.append(series_product([(s + len(ladder) - 1, -1, -1)], trunc, ladder[-1]))
    return ladder[k]


def euler_inverse_truncated(trunc: Truncation) -> QPoly:
    """Generating series of all partitions, 1/(q; q)_inf, up to the cap."""
    return inv_qpoch(1, math.floor(trunc.degree_cap), trunc)


def eval_at_one(p: QPoly) -> int:
    """Coefficient sum; defined only for true polynomials in q."""
    if p._den != 1 or any(k < 0 for k in p._terms):
        raise NonPolynomial("eval_at_one requires nonnegative integer exponents")
    return sum(p._terms.values())


def render(p: QPoly) -> str:
    """Canonical text form: ascending exponents, signed joining."""
    if not p._terms:
        return "0"
    den, parts = p._den, []
    for k in sorted(p._terms):
        c, g = p._terms[k], math.gcd(k, den)  # the exponent k/den is (k/g)/(den/g) in lowest terms
        body = "q" if k == den else f"q^{k // g}" if g == den else f"q^({k // g}/{den // g})"
        body = str(abs(c)) if k == 0 else body if abs(c) == 1 else f"{abs(c)}*{body}"
        parts.append(("-" if c < 0 else "") + body if not parts else ("- " if c < 0 else "+ ") + body)
    return " ".join(parts)
