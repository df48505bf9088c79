"""Doubly bounded partition-pair polynomials and their transform tree.

burge_xn is the one evaluator of the bilateral two-term j-sum
X_{r,s}^{(p,p')} at level N: each j-term carries an inner sum over
admissible (mu,eta)-systems, and at N = 1 that sum is the one empty
system, which leaves Burge's polynomial in standard binomials.  The
j-windows keep every j that can contribute.  Each binomial bottom must be
nonnegative, which bounds j by M1 and M2; each top must reach its bottom,
which bounds j by L1 and L2.  The tops grow with mu_1 and mu_last, and
these are at most (Cinv v)_1 = ((N-1) b_1 + b_2)/N and its mirror, since
eta >= 0 and Cinv > 0 entrywise for the A family.  At N = 1 the windows
are Burge's own (W. H. Burge, J. Combin. Theory Ser. A 63, 1993).

Transforms are higher-order: they apply the summation kernel to a child
evaluator, so the same code path both verifies transform identities
against direct evaluation and generates tree-node values.  There is one
kernel, the level-N one, and one label rule per transform; Burge's classic
transforms bt and bt2 are traf1 and traf2 at N = 1, with sigma =
(M1 - M2) mod 2.  A transform evaluates wherever it is called.  Whether its
identity is proven there is a separate question, and edge_applies is the one
place that answers it: the sufficiency predicates (floor inequalities) for
the level tags, the scan-based safety checks for the classic ones.

The tree: for N = 1, breadth-first iteration of both transforms from
the trivial seed (p,p',r,s) = (1,2,0,1).  For N > 1 the classic tree is
kept as a backbone and each backbone node sprouts two level-N leaves,
whose labels follow the level-N rules at M1 = M2, L1 = L2.

Closed forms: CLOSED_FORMS gives each display its level, its node labels
and its evaluator.  The level displays tadpole, euler_n, a_n and rr_n hold
at every N.  Burge's nn, euler, ising and rr are their N = 1 cases: they
live at N = 1 only and share those evaluators.  initial, the seed's
Kronecker delta, also lives at N = 1.  slater lives at N = 2 only and is a
second display of the rr_n node.  It keeps its own double sum, since it is
an independent check of that polynomial; folded into rr_n, its rows would
be copies of the rr_n rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import Checked, InvalidParams, UnknownClosedForm
from .lattice import axis_source, cartan, i_sum, scope, system_sum
from .qbinom import qbin
from .qpoly import ONE, ZERO, QPoly, dot, half_int, mul, norm_rat, twice

Rational = Union[int, Fraction]
Evaluator4 = Callable[[int, int, int, int], QPoly]


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


@dataclass(frozen=True)
class BurgeParams(Checked):
    p: int
    pprime: int
    r: int
    s: int
    M1: int
    L1: Rational
    M2: int
    L2: Rational
    N: int = 1
    sigma: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "L1", norm_rat(self.L1))
        object.__setattr__(self, "L2", norm_rat(self.L2))

    @property
    def M12(self) -> int:
        return self.M1 - self.M2

    def violation(self) -> Optional[str]:
        if self.p < 1 or self.pprime < 1:
            return "p and p' must be >= 1"
        if self.N < 1:
            return "N must be >= 1"
        if self.sigma not in (0, 1):
            return "sigma must be 0 or 1"
        diff = self.pprime - self.p
        if diff < 0 or diff % self.N:
            return "(p'-p)/N must be a nonnegative integer"
        if (self.r - self.s) % self.N:
            return "(r-s)/N must be an integer"
        if (self.M12 + self.sigma * self.N) % 2:
            return "M1-M2 + sigma*N must be even"
        for name, L in (("L1", self.L1), ("L2", self.L2)):
            if 2 % L.denominator or (2 * L.numerator // L.denominator + self.M12 + self.sigma) % 2:
                return f"{name} + (M1-M2+sigma)/2 must be an integer"
        return None


# --- level-N polynomial ---------------------------------------------------------

def _xn_term(
    cd, M1: int, M2: int, two_l1: int, two_l2: int, p: int, pp: int, n_lat: int, sigma: int,
    j: int, shift: int, skew: int,
) -> QPoly:
    """Inner eta-sum of one j-term; shift = 0 or r, skew = 0 or r-s.

    The binomial tops M1 + L1 - ((p'-p)j - skew)/N - (b2_bot - mu1)/2 and its
    mirror are integer numerators over 2N.  The congruence restriction makes
    a fractional top impossible at a valid point, so one raises InvalidParams.
    """
    b1_bot = M1 + p * j + shift
    b2_bot = M2 - p * j - shift
    v = axis_source(cd.rank, [(1, b1_bot), (cd.rank, b2_bot)])
    offset = M1 - M2 + 2 * p * j + 2 * shift + sigma * n_lat
    two_n, tilt = 2 * n_lat, 2 * ((pp - p) * j - skew)
    base1 = n_lat * (2 * M1 + two_l1 - b2_bot) - tilt
    base2 = n_lat * (2 * M2 + two_l2 - b1_bot) + tilt

    def weight(m):
        mu1, mu_last = m[:2] if m else (b2_bot, b1_bot)
        top1, rem1 = divmod(base1 + n_lat * mu1, two_n)
        top2, rem2 = divmod(base2 + n_lat * mu_last, two_n)
        if rem1 or rem2:
            raise InvalidParams("binomial top must be an integer")
        t = qbin(top1, b1_bot)
        if t.is_zero():
            return t
        return mul(t, qbin(top2, b2_bot))

    return system_sum(cd, v, offset, weight)


def burge_xn(bp: BurgeParams) -> QPoly:
    """The level-N polynomial, after validating bp."""
    bp.validate()
    p, pp, r, s = bp.p, bp.pprime, bp.r, bp.s
    M1, M2, M12, N = bp.M1, bp.M2, bp.M12, bp.N
    two_l1, two_l2 = twice(bp.L1, "L1"), twice(bp.L2, "L2")
    cd = cartan(N)
    total = ZERO
    # the two j-sums: sign, shift, skew, and the exponent of q^(1/N)
    for sign, shift, skew, exponent in ((1, 0, 0, lambda j: j * (p * pp * j + pp * (M12 + r) - p * s)),
                                        (-1, r, r - s, lambda j: (p * j + M12 + r) * (pp * j + s))):
        # bottoms >= 0, and top >= bottom at the largest mu_1 and mu_last
        tilt = (N - 1) * M12 + 2 * skew - 2 * shift
        lo = max(_ceil_div(-M1 - shift, p), -((N * two_l2 - tilt) // (2 * pp)))
        for j in range(lo, min((M2 - shift) // p, (N * two_l1 + tilt) // (2 * pp)) + 1):
            inner = _xn_term(cd, M1, M2, two_l1, two_l2, p, pp, N, bp.sigma, j, shift, skew)
            if not inner.is_zero():
                total = total + inner.times_monomial(sign, exponent(j), N)
    return total


# --- transforms -------------------------------------------------------------------

def transform_burgetrafo_n(
    n_lat: int, sigma: int, M1: int, L1: Rational, M2: int, L2: Rational, child: Evaluator4,
) -> QPoly:
    """Level-N kernel over child(i+M12, L1-i+m1/2, i, L2-M12-i+m1/2).

    At N = 1 and sigma = M12 mod 2 the inner sum is the single term m1 = 0,
    and this is Burge's first transform, sum_i q^{i(i+M12)}
    [L1+L2+M2-i over M2-i] child(i+M12, L1-i, i, L2-M12-i).

    The window's lower end is ceil(-M12/2): the child's top-minus-bottom
    differences sum to 2i+M12 plus a quantity whose minimum over j is zero,
    so terms below that vanish.
    """
    M12 = M1 - M2
    two_l1, two_l2 = twice(L1, "L1"), twice(L2, "L2")
    if (M12 + sigma * n_lat) % 2:
        raise InvalidParams("M1-M2 + sigma*N must be even")
    l1l2 = half_int(two_l1 + two_l2, "L1+L2")

    def weight(i: int, m) -> QPoly:
        m1 = m[0] if m else 0
        return child(i + M12, half_int(two_l1 - 2 * i + m1, "L1-i+m1/2"), i,
                     half_int(two_l2 - 2 * (M12 + i) + m1, "L2-M12-i+m1/2"))

    return i_sum(cartan(n_lat), M12, sigma * n_lat, range(_ceil_div(-M12, 2), M2 + 1), weight,
                 lambda i: qbin(l1l2 + M2 - i, M2 - i))


def transform_trafo(
    n_lat: int, sigma: int, M1: int, L1: Rational, M2: int, L2: Rational, child: Evaluator4,
) -> QPoly:
    """Level-N kernel over child(L1-i+m1/2, i+M12, L2-M12-i+m1/2, i): the first
    transform over the child with each (M, L) pair swapped.

    At N = 1 and sigma = M12 mod 2 this is Burge's second transform, the
    same kernel over child(L1-i, i+M12, L2-M12-i, i).
    """
    return transform_burgetrafo_n(n_lat, sigma, M1, L1, M2, L2,
                                  lambda m1, l1, m2, l2: child(l1, m1, l2, m2))


def child_labels(labels: Tuple[int, int, int, int], tag: str, n_lat: int = 1,
                 m12: int = 0, l12: int = 0) -> Tuple[int, int, int, int]:
    """Labels (p, p', r, s) of the level-N node that transform `tag` grows from `labels`.

    The first transform (bt, traf1) gives (p, p + Np', r, r + Ns), the second
    (bt2, traf2) gives (p', Np + p', s - M12, N(r + L12 + M12) + s - M12), with
    M12 = M1 - M2 and L12 = L1 - L2 the bound differences of the point.  The
    classic tags are the N = 1 case.
    """
    p, pp, r, s = labels
    if tag in ("bt", "traf1"):
        return p, p + n_lat * pp, r, r + n_lat * s
    return pp, n_lat * p + pp, s - m12, n_lat * (r + l12 + m12) + s - m12


# parent labels -> {(M1, L1, M2, L2): the parent's level-1 polynomial}
_PARENT: Dict[Tuple, Dict[Tuple, QPoly]] = {}


def edge_sides(labels: Tuple[int, int, int, int], tag: str, M1: int, L1: Rational,
               M2: int, L2: Rational, n_lat: int = 1, sigma: int = 0) -> Tuple[QPoly, QPoly]:
    """The child of `labels` under `tag`, evaluated directly and through the transform.

    bt and traf1 route through the first transform, bt2 and traf2 through
    the second, at (M1, L1, M2, L2) over the parent's polynomial at level 1.
    The classic tags bt and bt2 fix N = 1 and sigma the parity of M1-M2.
    Whether the two sides must agree is edge_applies's question.  A sweep
    reads the parent at each bound many times, so _PARENT keeps its values for
    one label set at a time (lattice.scope); an evaluation that raised is never
    stored, so its point raises again.
    """
    values = scope(_PARENT, tuple(labels))

    def parent(*bounds):
        if bounds not in values:
            values[bounds] = burge_xn(BurgeParams(*labels, *bounds, sigma=(bounds[0] - bounds[2]) % 2))
        return values[bounds]

    if tag in ("bt", "bt2"):
        n_lat, sigma = 1, (M1 - M2) % 2
    tf = transform_burgetrafo_n if tag in ("bt", "traf1") else transform_trafo
    return (burge_xn(_child(labels, tag, M1, L1, M2, L2, n_lat, sigma)),
            tf(n_lat, sigma, M1, L1, M2, L2, parent))


def _child(labels: Tuple[int, int, int, int], tag: str, M1: int, L1: Rational,
           M2: int, L2: Rational, n_lat: int, sigma: int) -> BurgeParams:
    # L1 - L2 is an integer at every valid point; elsewhere the child fails validation
    return BurgeParams(*child_labels(labels, tag, n_lat, M1 - M2, int(L1 - L2)),
                       M1, L1, M2, L2, N=n_lat, sigma=sigma)


def edge_applies(labels: Tuple[int, int, int, int], tag: str, M1: int, L1: Rational,
                 M2: int, L2: Rational, n_lat: int = 1, sigma: int = 0) -> bool:
    """True where the identity of edge_sides is proven at this point.

    The parent's labels must be valid at level 1, 1 <= p <= p', which makes
    the child's labels valid; the child is then valid when its point is.  A
    classic tag needs integral bounds >= 0 and its safety scan, a level tag
    sufficiency on the parent: sufsym at symmetric bounds, else suf or suf2.
    """
    if not 1 <= labels[0] <= labels[1]:
        return False
    if tag in ("bt", "bt2"):  # at N = 1, sigma = M12 mod 2: valid for integral L1, L2
        return (min(M1, L1, M2, L2) >= 0 and not (L1 % 1 or L2 % 1)
                and (classic_bt_safe if tag == "bt" else classic_bt2_safe)(*labels, M1, L1, M2, L2))
    if _child(labels, tag, M1, L1, M2, L2, n_lat, sigma).violation() is not None:
        return False
    which = "sufsym" if (M1, L1) == (M2, L2) else "suf" if tag == "traf1" else "suf2"
    return sufficiency(BurgeParams(*labels, M1, L1, M2, L2, N=n_lat, sigma=sigma), which)


# --- sufficiency predicates ---------------------------------------------------------

def sufficiency(bp: BurgeParams, which: str) -> bool:
    """Floor-inequality guarantees for the level-N transforms.

    The label fields of `bp` are the parent's labels, those of the node the
    transform is applied to (so the floors use the parent's p and p'), and
    the bound fields are the point of application; `which`
    selects "suf" (first unsymmetric transform), "suf2" (second), or
    "sufsym" (the shared symmetric case, needing M1 = M2 and L1 = L2).
    All three require p' > p; otherwise the guarantee is unavailable
    and the answer is False.
    """
    p, pprime, r, s, n_lat, m12 = bp.p, bp.pprime, bp.r, bp.s, bp.N, bp.M12
    if pprime <= p:
        return False
    L1, L2 = Fraction(bp.L1), Fraction(bp.L2)
    den_l = Fraction(pprime) + Fraction(p, n_lat)
    den_r = Fraction(pprime - p)
    skew = Fraction(m12 * (n_lat - 1), 2 * n_lat)

    def line(a_num, b_num) -> bool:
        return math.floor(a_num / den_l) <= math.floor(b_num / den_r)

    if which == "sufsym":
        if m12 != 0 or L1 != L2:
            raise InvalidParams("sufsym applies to the symmetric case only")
        return line(L1 + s + Fraction(r, n_lat), L1 - r + s)
    if which == "suf":
        pairs = [
            (L1 + skew - s - Fraction(r, n_lat), L1 + m12 + r - s),
            (L2 - skew + s + Fraction(r, n_lat), L2 - m12 - r + s),
            (L1 + skew, L1 + m12),
            (L2 - skew, L2 - m12),
        ]
    elif which == "suf2":
        pairs = [
            (L2 - skew - s - Fraction(r, n_lat), L1 + m12 + r - s),
            (L1 + skew + s + Fraction(r, n_lat), L2 - m12 - r + s),
            (L2 - skew, L1 + m12),
            (L1 + skew, L2 - m12),
        ]
    else:
        raise InvalidParams(f"unknown sufficiency predicate {which!r}")
    return all(line(a, b) for a, b in pairs)


def classic_bt_safe(
    p: int, pprime: int, r: int, s: int, M1: int, L1: int, M2: int, L2: int
) -> bool:
    """True when the classic transform's proof never needs an excluded case.

    Scans the finite j-ranges where either exceptional chain could hold,
    for (r, s) and for the (0, 0) counterpart; any hit disproves safety.
    The windows come from the chain's own inequalities: the middle member
    must be negative, and comparing it with the outer members bounds j on
    the other side by (L1-s-r)/(p'+p) or -(L2+r+s)/(p'+p).
    """
    M12 = M1 - M2

    def chain1(j: int, rr: int, ss: int) -> bool:
        a = -L1 - M12 + (pprime - p) * j - rr + ss
        b = -M12 - 2 * p * j - 2 * rr
        c = L2 - M12 + (pprime - p) * j - rr + ss
        return a <= b <= c < 0 <= M2 - p * j - rr

    def chain2(j: int, rr: int, ss: int) -> bool:
        a = -L2 + M12 - (pprime - p) * j + rr - ss
        b = M12 + 2 * p * j + 2 * rr
        c = L1 + M12 - (pprime - p) * j + rr - ss
        return a <= b <= c < 0 <= M1 + p * j + rr

    for rr, ss in ((r, s), (0, 0)):
        lo = (-M12 - 2 * rr) // (2 * p) + 1
        hi = (L1 - ss - rr) // (pprime + p)
        for j in range(lo, hi + 1):
            if chain1(j, rr, ss):
                return False
        lo = _ceil_div(-(L2 + rr + ss), pprime + p)
        hi = (-M12 - 2 * rr - 1) // (2 * p)
        for j in range(lo, hi + 1):
            if chain2(j, rr, ss):
                return False
    return True


def classic_bt2_safe(
    p: int, pprime: int, r: int, s: int, M1: int, L1: int, M2: int, L2: int
) -> bool:
    """Safety scan for the second classic transform.

    That transform is the first one seen through the label symmetry, so
    the scan runs on the symmetry-transformed child labels.
    """
    M12, L12 = M1 - M2, L1 - L2
    return classic_bt_safe(pprime, p, s - M12, r + M12 + L12, M1, L1, M2, L2)


# --- closed forms ----------------------------------------------------------------------

def _parity_ok(m_mod2: Sequence[int], n_lat: int, sigma: int, flip: bool) -> bool:
    # 1-based odd positions carry sigma for the tadpole display, even
    # positions for the A_N display (flip=True); N odd allows only even m
    if n_lat % 2:
        return all(x % 2 == 0 for x in m_mod2)
    for idx, x in enumerate(m_mod2):
        odd_pos = idx % 2 == 0
        want = sigma if (odd_pos != flip) else 0
        if x % 2 != want % 2:
            return False
    return True


def _euler_n_form(M: int, L: Rational, n_lat: int, sigma: int) -> QPoly:
    two_l = twice(L, "L")
    return ZERO if sigma else qbin(two_l + M, two_l)


def _lattice_form(M: int, L: Rational, n_lat: int, sigma: int, a_n: bool) -> QPoly:
    """The tadpole display on rank N-1 tadpole data or, with a_n, the A_N one on rank N."""
    two_l = twice(L, "L")
    cd = cartan(n_lat + 1) if a_n else cartan(n_lat, "tadpole")
    v = axis_source(cd.rank, [(1, two_l)])
    top = (2 if a_n else 1) * two_l + 2 * M  # twice the binomial top, less m1

    def weight(m):
        if not _parity_ok(m[2] if m else (), n_lat, sigma, flip=a_n):
            return ZERO
        return qbin(half_int(top - (m[0] if m else 0), "binomial top"), two_l)

    # m C m / 4 = n Cinv n - v Cinv n + v Cinv v / 4 for m = Cinv (v - 2n), C symmetric;
    # the prefactor v Cinv v / 4, plus L^2 for the tadpole, is one integer over 4 cinv_den
    pre = cd.qform(v) + (0 if a_n else cd.cinv_den * two_l * two_l)
    return system_sum(cd, v, None, weight, shift=v).times_monomial(1, pre, 4 * cd.cinv_den)


def _rr_n_form(M: int, L: Rational, n_lat: int, sigma: int) -> QPoly:
    two_l = twice(L, "L")
    return i_sum(cartan(n_lat), 0, sigma * n_lat, range(M + 1),
                 lambda i, m: qbin(two_l - i + (m[0] if m else 0), i),
                 lambda i: qbin(two_l + M - i, two_l))


def _slater_form(M: int, L: Rational, n_lat: int, sigma: int) -> QPoly:
    two_l = twice(L, "L")  # k runs over the parity of i + sigma
    return dot((qbin(two_l + M - i, two_l), mul(qbin(i, k), qbin(two_l - k, i)).times_monomial(1, i * i + k * k, 2))
               for i in range(M + 1) for k in range((i + sigma) % 2, i + 1, 2))


class ClosedForm(NamedTuple):
    level: Optional[int]  # the one N the display lives at, or None for every N >= 1
    labels: Callable[[int], Tuple[int, int, int, int]]  # its node (p, p', r, s) at level N
    display: Callable[[int, Rational, int, int], QPoly]  # (M, L, N, sigma) -> value


_tadpole_form = partial(_lattice_form, a_n=False)
_a_n_form = partial(_lattice_form, a_n=True)

# In this order: closed_form_name takes the first match, and it is the order
# of the name axis of the burge.forms sweep.  A classic name is its level
# display at N = 1.
CLOSED_FORMS: Dict[str, ClosedForm] = {
    "initial": ClosedForm(1, lambda n: (1, 2, 0, 1), lambda M, L, n, sg: ONE if L == 0 <= M else ZERO),
    "nn": ClosedForm(1, lambda n: (1, 3, 0, 1), _tadpole_form),
    "euler": ClosedForm(1, lambda n: (2, 3, 1, 1), _euler_n_form),
    "ising": ClosedForm(1, lambda n: (3, 4, 1, 1), _a_n_form),
    "rr": ClosedForm(1, lambda n: (2, 5, 1, 2), _rr_n_form),
    "tadpole": ClosedForm(None, lambda n: (1, 2 * n + 1, 0, n), _tadpole_form),
    "euler_n": ClosedForm(None, lambda n: (2, n + 2, 1, 1), _euler_n_form),
    "a_n": ClosedForm(None, lambda n: (3, n + 3, 1, 1), _a_n_form),
    "rr_n": ClosedForm(None, lambda n: (2, 3 * n + 2, 1, n + 1), _rr_n_form),
    "slater": ClosedForm(2, lambda n: (2, 8, 1, 3), _slater_form),
}


def closed_form(name: str, M: int, L: Rational, n_lat: int = 1, sigma: int = 0) -> QPoly:
    """The display `name` of its node at the symmetric bounds M1 = M2 = M, L1 = L2 = L.

    The point must exist: N >= 1, sigma in {0, 1} with sigma = 0 for odd N,
    L - sigma/2 an integer, and a fixed-level name at its own level.
    """
    form = CLOSED_FORMS.get(name)
    if form is None:
        raise UnknownClosedForm(name)
    if n_lat < 1:
        raise InvalidParams("N must be >= 1")
    if sigma not in (0, 1) or sigma * n_lat % 2:
        raise InvalidParams("sigma must be 0 or 1, and 0 for odd N")
    half_int(twice(L, "L") - sigma, "L - sigma/2")
    if form.level not in (None, n_lat):
        raise InvalidParams(f"{name} is the N = {form.level} display")
    return form.display(M, L, n_lat, sigma)


def closed_form_name(p: int, pprime: int, r: int, s: int, n_lat: int) -> Optional[str]:
    """The first name in CLOSED_FORMS at level n_lat whose node has these labels."""
    for name, form in CLOSED_FORMS.items():
        if form.level in (None, n_lat) and form.labels(n_lat) == (p, pprime, r, s):
            return name
    return None


# --- tree -------------------------------------------------------------------------------

TREE_DEPTH_CAP = 6  # the tree doubles per level; depth 6 has 127 classic nodes


@dataclass(frozen=True)
class TreeNode:
    p: int
    pprime: int
    r: int
    s: int
    N: int
    sigma: int
    depth: int
    parent_index: Optional[int]
    transform_tag: Optional[str]
    closed_form_name: Optional[str]

    @property
    def labels(self) -> Tuple[int, int, int, int]:
        return self.p, self.pprime, self.r, self.s


def build_tree(depth: int, n_lat: int = 1, sigma: int = 0) -> List[TreeNode]:
    """The shape of the transform tree from the seed (1,2,0,1), breadth first.

    For n_lat = 1 both classic transforms generate children down to
    `depth`, which lies in 0..TREE_DEPTH_CAP.  For n_lat > 1 the classic
    tree forms a backbone of depth depth-1 and every backbone node sprouts
    one leaf per symmetric level-N transform.  A node carries no verdict:
    the command line checks it as points of burge.forms and of its edge's
    family.
    """
    if not 0 <= depth <= TREE_DEPTH_CAP:
        raise InvalidParams(f"depth must lie in 0..{TREE_DEPTH_CAP}")
    if n_lat < 1:
        raise InvalidParams("N must be >= 1")
    if n_lat % 2 and sigma != 0:
        raise InvalidParams("odd N forces sigma = 0")
    nodes: List[TreeNode] = []

    def add(p, pp, r, s, nl, sg, d, parent, tag):
        nodes.append(TreeNode(p, pp, r, s, nl, sg, d, parent, tag, closed_form_name(p, pp, r, s, nl)))
        return len(nodes) - 1

    backbone_depth = depth if n_lat == 1 else depth - 1
    frontier = [add(1, 2, 0, 1, 1, 0, 0, None, None)]
    for d in range(1, backbone_depth + 1):
        next_frontier = []
        for idx in frontier:
            for tag in ("bt", "bt2"):
                labels = child_labels(nodes[idx].labels, tag)
                next_frontier.append(add(*labels, 1, 0, d, idx, tag))
        frontier = next_frontier
    if n_lat > 1 and depth >= 1:
        for idx in range(len(nodes)):
            for tag in ("traf1", "traf2"):
                labels = child_labels(nodes[idx].labels, tag, n_lat)
                add(*labels, n_lat, sigma, nodes[idx].depth + 1, idx, tag)
    return nodes
