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
kernel, the level-N one; Burge's classic transforms are its N = 1 case,
with sigma = (M1 - M2) mod 2.  A transform evaluates wherever it is
called.  Whether its identity is proven there is a separate question,
answered by the sufficiency predicates (floor inequalities) and the
scan-based safety checks of the classic transforms; the callers that
verify an edge consult them first.

The tree: for N = 1, breadth-first iteration of both transforms from
the trivial seed (p,p',r,s) = (1,2,0,1).  For N > 1 the classic tree is
kept as a backbone and each backbone node sprouts two level-N leaves,
whose labels follow the symmetric level-N transform rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import Checked, InvalidParams, UnknownClosedForm
from .lattice import axis_source, cartan, i_sum, system_sum
from .qbinom import qbin
from .qpoly import ONE, ZERO, QPoly, as_int, half_int, mul, norm_rat, twice

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


def burge_xn(bp: BurgeParams, checked: bool = False) -> QPoly:
    """The level-N polynomial; checked=True skips the validation of a point already validated."""
    if not checked:
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
    """Labels (p, p', r, s) of the node that transform `tag` grows from `labels`.

    The bt2 child also moves with the bound differences M1-M2 and L1-L2,
    which vanish at the symmetric points of the tree.
    """
    p, pp, r, s = labels
    if tag == "bt":
        return p, p + pp, r, r + s
    if tag == "bt2":
        return pp, p + pp, s - m12, r + s + l12
    if tag == "traf1":
        return p, p + n_lat * pp, r, r + n_lat * s
    return pp, n_lat * p + pp, s, n_lat * r + s


def edge_sides(labels: Tuple[int, int, int, int], tag: str, M1: int, L1: Rational,
               M2: int, L2: Rational, n_lat: int = 1, sigma: int = 0) -> Tuple[QPoly, QPoly]:
    """The child of `labels` under `tag`, evaluated directly and through the transform.

    bt and traf1 route through the first transform, bt2 and traf2 through
    the second.  The classic tags bt and bt2 are its N = 1 case, with sigma
    the parity of M1-M2.  The level tags traf1 and traf2 take symmetric
    bounds only, M1 = M2 and L1 = L2, and raise InvalidParams otherwise.
    """

    def parent(m1, l1, m2, l2):
        return burge_xn(BurgeParams(*labels, m1, l1, m2, l2, sigma=(m1 - m2) % 2))

    if tag in ("bt", "bt2"):
        n_lat, sigma = 1, (M1 - M2) % 2
    elif (M1, L1) != (M2, L2):
        raise InvalidParams(f"{tag} takes symmetric bounds only: M1 = M2 and L1 = L2")
    child = BurgeParams(*child_labels(labels, tag, n_lat, M1 - M2, L1 - L2),
                        M1, L1, M2, L2, N=n_lat, sigma=sigma)
    tf = transform_burgetrafo_n if tag in ("bt", "traf1") else transform_trafo
    return burge_xn(child), tf(n_lat, sigma, M1, L1, M2, L2, parent)


# --- sufficiency predicates ---------------------------------------------------------

def sufficiency(bp: BurgeParams, which: str) -> bool:
    """Floor-inequality guarantees for the level-N transforms.

    The label fields of `bp` are read as the child labels of the
    transform, the bound fields as the point of application; `which`
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


def closed_form(name: str, M: int, L: Rational, n_lat: int = 1, sigma: int = 0) -> QPoly:
    """Explicit right-hand sides for the recognized tree nodes."""
    if name == "initial":
        return ONE if L == 0 else ZERO
    if name == "nn":
        Li = as_int(L, "L")
        return qbin(Li + M, 2 * Li).times_monomial(1, Li * Li)
    if name == "euler":
        Li = as_int(L, "L")
        return qbin(2 * Li + M, 2 * Li)
    if name == "ising":
        Li = as_int(L, "L")
        total = ZERO
        for m in range(0, Li + 1, 2):
            t = mul(qbin(2 * Li + M - m // 2, 2 * Li), qbin(Li, m))
            if not t.is_zero():
                total = total + t.times_monomial(1, m * m // 2)
        return total
    if name == "rr":
        Li = as_int(L, "L")
        total = ZERO
        for k in range(0, Li + 1):
            t = mul(qbin(2 * Li + M - k, 2 * Li), qbin(2 * Li - k, k))
            if not t.is_zero():
                total = total + t.times_monomial(1, k * k)
        return total
    if name == "euler_n":
        if sigma != 0:
            return ZERO
        Li = as_int(L, "L")
        return qbin(2 * Li + M, 2 * Li)
    if name in ("tadpole", "a_n"):
        return _lattice_form(M, L, n_lat, sigma, a_n=name == "a_n")
    if name == "rr_n":
        return _rr_n_form(M, L, n_lat, sigma)
    if name == "slater":
        return _slater_form(M, L, n_lat, sigma)
    raise UnknownClosedForm(name)


def _lattice_form(M: int, L: Rational, n_lat: int, sigma: int, a_n: bool) -> QPoly:
    """The tadpole display on rank N-1 tadpole data or, with a_n, the A_N one on rank N."""
    two_l = twice(L, "L")
    if n_lat % 2 and sigma != 0:
        raise InvalidParams("odd N forces sigma = 0 here")
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
    if n_lat != 2:
        raise InvalidParams("this double sum is the N=2 display")
    two_l = twice(L, "L")
    total = ZERO
    for i in range(0, M + 1):
        outer = qbin(two_l + M - i, two_l)
        if outer.is_zero():
            continue
        for k in range(0, i + 1):
            if (k + i + sigma) % 2:
                continue
            t = mul(qbin(i, k), qbin(two_l - k, i))
            if t.is_zero():
                continue
            t = mul(outer, t)
            total = total + t.times_monomial(1, i * i + k * k, 2)
    return total


# closed-form name -> its node labels (p, p', r, s) at level N
FORM_LABELS: Dict[str, Callable[[int], Tuple[int, int, int, int]]] = {
    "initial": lambda n: (1, 2, 0, 1),
    "nn": lambda n: (1, 3, 0, 1),
    "euler": lambda n: (2, 3, 1, 1),
    "ising": lambda n: (3, 4, 1, 1),
    "rr": lambda n: (2, 5, 1, 2),
    "tadpole": lambda n: (1, 2 * n + 1, 0, n),
    "euler_n": lambda n: (2, n + 2, 1, 1),
    "a_n": lambda n: (3, n + 3, 1, 1),
    "rr_n": lambda n: (2, 3 * n + 2, 1, n + 1),
    "slater": lambda n: (2, 8, 1, 3),
}
CLASSIC_FORMS = ("initial", "nn", "euler", "ising", "rr")
_LEVEL_FORMS = ("tadpole", "euler_n", "a_n", "rr_n")  # slater is not a tree node


def closed_form_name(p: int, pprime: int, r: int, s: int, n_lat: int) -> Optional[str]:
    """The inverse of FORM_LABELS on the nodes the tree recognizes."""
    for name in CLASSIC_FORMS if n_lat == 1 else _LEVEL_FORMS:
        if FORM_LABELS[name](n_lat) == (p, pprime, r, s):
            return name
    return None


# --- tree -------------------------------------------------------------------------------

TREE_DEPTH_CAP = 6  # the tree doubles per level; depth 6 has 127 classic nodes
TREE_GRID_CAP = 8  # each node checks (grid + 1)^2 points; at depth 6, grid 8 takes seconds

# a failed check at one symmetric point: (M, L, direct value, closed form or route)
Witness = Tuple[int, Rational, QPoly, QPoly]


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
    verified: Optional[bool]
    witness: Optional[Witness] = None  # the first failed check when verified is False


def _verify_node(p: int, pp: int, r: int, s: int, n_lat: int, sigma: int,
                 form: Optional[str], grid: int) -> Union[None, bool, Witness]:
    """True when the node equals its closed form on the grid, else the first failure."""
    if form is None or grid < 0:
        return None  # no point to check
    shift = Fraction(sigma, 2)
    for M in range(0, grid + 1):
        for twoL in range(0, 2 * grid + 1, 2):
            L = twoL // 2 + shift
            direct = burge_xn(BurgeParams(p, pp, r, s, M, L, M, L, N=n_lat, sigma=sigma))
            want = closed_form(form, M, L, n_lat, sigma)
            if direct != want:
                return M, L, direct, want
    return True


def _labels(nd: TreeNode) -> Tuple[int, int, int, int]:
    return nd.p, nd.pprime, nd.r, nd.s


def _verify_edge(parent: TreeNode, tag: str, n_lat: int, sigma: int,
                 grid: int) -> Union[None, bool, Witness]:
    """Route through the parent equals the direct child at symmetric points.

    Level transforms skip grid points outside their sufficiency window;
    None means no point was applicable, a tuple is the first failure.
    """
    level = tag in ("traf1", "traf2")
    shift = Fraction(sigma, 2) if level else 0
    checked = False
    for M in range(0, grid + 1):
        for k in range(0, grid + 1):
            L = k + shift
            if level:
                probe = BurgeParams(*_labels(parent), M, L, M, L, N=n_lat, sigma=sigma)
                if not sufficiency(probe, "sufsym"):
                    continue
            direct, route = edge_sides(_labels(parent), tag, M, L, M, L, n_lat, sigma)
            if direct != route:
                return M, L, direct, route
            checked = True
    return True if checked else None


def build_tree(depth: int, n_lat: int = 1, sigma: int = 0, verify_grid: int = 2) -> List[TreeNode]:
    """Transform tree from the seed (1,2,0,1), breadth first.

    For n_lat = 1 both classic transforms generate children down to
    `depth`, which lies in 0..TREE_DEPTH_CAP.  For n_lat > 1 the classic tree forms a backbone of depth
    depth-1 and every backbone node sprouts one leaf per symmetric
    level-N transform.  Nodes with recognized labels carry a closed-form
    verdict checked on a small (M, L) grid; a node that fails it or its
    edge check keeps the first failure as its witness.
    """
    if not 0 <= depth <= TREE_DEPTH_CAP:
        raise InvalidParams(f"depth must lie in 0..{TREE_DEPTH_CAP}")
    if n_lat < 1:
        raise InvalidParams("N must be >= 1")
    if not 0 <= verify_grid <= TREE_GRID_CAP:
        raise InvalidParams(f"verify_grid must lie in 0..{TREE_GRID_CAP}")
    if n_lat % 2 and sigma != 0:
        raise InvalidParams("odd N forces sigma = 0")
    nodes: List[TreeNode] = []

    def add(p, pp, r, s, nl, sg, d, parent, tag):
        form = closed_form_name(p, pp, r, s, nl)
        form_ok = _verify_node(p, pp, r, s, nl, sg, form, verify_grid)
        edge_ok = None
        if parent is not None:
            edge_ok = _verify_edge(nodes[parent], tag, nl, sg, verify_grid)
        witness = next((w for w in (form_ok, edge_ok) if isinstance(w, tuple)), None)
        if form_ok is None and edge_ok is None:
            verified: Optional[bool] = None
        else:
            verified = witness is None
        nodes.append(TreeNode(p, pp, r, s, nl, sg, d, parent, tag, form, verified, witness))
        return len(nodes) - 1

    backbone_depth = depth if n_lat == 1 else depth - 1
    frontier = [add(1, 2, 0, 1, 1, 0, 0, None, None)]
    for d in range(1, backbone_depth + 1):
        next_frontier = []
        for idx in frontier:
            for tag in ("bt", "bt2"):
                labels = child_labels(_labels(nodes[idx]), tag)
                next_frontier.append(add(*labels, 1, 0, d, idx, tag))
        frontier = next_frontier
    if n_lat > 1 and depth >= 1:
        for idx in range(len(nodes)):
            for tag in ("traf1", "traf2"):
                labels = child_labels(_labels(nodes[idx]), tag, n_lat)
                add(*labels, n_lat, sigma, nodes[idx].depth + 1, idx, tag)
    return nodes
