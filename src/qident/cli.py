"""Command line front end: sweep-verify identity families, expand transform
trees, and evaluate single objects to canonical text.

Each verify family owns a parameter schema and a default grid; the defaults
are the acceptance grids and are versioned via GRID_VERSION.  Reports are
emitted one JSON object per line with a summary object last, and the stream
is byte-identical across runs for a fixed configuration: grids iterate in a
fixed order, workers hand results back through an order-restoring map, and
elapsed_ms stays 0 unless timing is requested explicitly.

Exit codes: 0 when every verdict is equal or skipped_precondition, 1 when
any point mismatches or errors, 2 for configuration problems (unknown
family, malformed or empty ranges, oversized sweeps, out-of-range flags).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .burge import (
    BurgeParams,
    build_tree,
    burge_x,
    burge_xn,
    classic_bt2_safe,
    classic_bt_safe,
    closed_form,
    sufficiency,
    transform_bt,
    transform_bt2,
    transform_traf1,
    transform_traf2,
)
from .errors import InvalidParams, QIdentError, UnbalancedParameters
from .multinom import (
    MultinomialQuery,
    abf_config_sum,
    classical_limit,
    classical_multinomial,
    difference_sides,
    t_multinomial,
    tnew_rhs,
)
from .qbinom import qbin_standard
from .qpoly import (
    ONE,
    QPoly,
    Truncation,
    euler_inverse_truncated,
    mul,
    qpoch,
    render,
    truncated_equal,
)
from .saalschutz import (
    ClassicParams,
    SaalschutzParams,
    gensum_lhs,
    gensum_rhs,
    qcv_exceptional,
    qcv_lhs,
    qcv_rhs,
    qs2_exceptional,
    qs2_lhs,
    qs2_rhs,
    sears_lhs,
    sears_rhs,
)
from .series import (
    BaileyPairQuery,
    StringFunctionQuery,
    conjugate_pair_failure,
    durfee_sides,
    limlm_sides,
    product_side,
    string_fermionic,
    string_lp,
    string_spinon,
    sum_side,
)

GRID_VERSION = "1"
TREE_DEPTH_CAP = 6
MAX_SWEEP_POINTS = 200_000

# (verdict, lhs, rhs, diff, truncation); a mismatch may append a witness dict
Verdict = Tuple[str, Optional[str], Optional[str], Optional[str], Optional[int]]


class ConfigError(Exception):
    pass


# --- parameter schemas and value parsing -------------------------------------------


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # int | rat | word | intinf
    choices: Optional[Tuple[str, ...]] = None


def _parse_one(text: str, ps: ParamSpec):
    if ps.kind == "word":
        if ps.choices and text not in ps.choices:
            raise ConfigError(
                f"--{ps.name}: {text!r} is not one of {', '.join(ps.choices)}"
            )
        return text
    if ps.kind == "intinf" and text == "inf":
        return None
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--{ps.name}: cannot parse {text!r} as a number")
    if val.denominator == 1:
        return int(val)
    if ps.kind == "rat":
        return val
    raise ConfigError(f"--{ps.name}: expected an integer, got {text!r}")


def _parse_values(text: str, ps: ParamSpec) -> List:
    vals: List = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk and ps.kind in ("int", "rat", "intinf"):
            lo_s, hi_s = chunk.split("..", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ConfigError(f"--{ps.name}: range bounds must be integers, got {chunk!r}")
            if lo > hi:
                raise ConfigError(f"--{ps.name}: empty range {chunk!r}")
            vals.extend(range(lo, hi + 1))
        elif chunk:
            vals.append(_parse_one(chunk, ps))
        else:
            raise ConfigError(f"--{ps.name}: empty value")
    if not vals:
        raise ConfigError(f"--{ps.name}: no values given")
    return vals


def _encode_value(v):
    if v is None:
        return "inf"
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


# --- per-point checkers -------------------------------------------------------------

_EQUAL: Verdict = ("equal", None, None, None, None)
_SKIP: Verdict = ("skipped_precondition", None, None, None, None)


def _exact_verdict(lhs: QPoly, rhs: QPoly) -> Verdict:
    if lhs == rhs:
        return _EQUAL
    return ("mismatch", render(lhs), render(rhs), render(lhs - rhs), None)


def _trunc_verdict(lhs: QPoly, rhs: QPoly, d: int) -> Verdict:
    t = Truncation(d)
    if truncated_equal(lhs, rhs, t):
        return ("equal", None, None, None, d)
    lt, rt = lhs.truncate(t), rhs.truncate(t)
    return ("mismatch", render(lt), render(rt), render(lt - rt), d)


def _chk_qs2(p, d, opts) -> Verdict:
    cp = ClassicParams(p["L1"], p["L2"], p["M"], p["ell"])
    if qs2_exceptional(cp):
        if opts.get("include_exceptional"):
            return ("skipped_precondition", render(qs2_lhs(cp)), render(qs2_rhs(cp)), None, None)
        return _SKIP
    return _exact_verdict(qs2_lhs(cp), qs2_rhs(cp))


def _chk_qcv(p, d, opts) -> Verdict:
    cp = ClassicParams(p["L1"], p["L2"], 0, p["ell"])
    if qcv_exceptional(cp):
        if opts.get("include_exceptional"):
            return ("skipped_precondition", render(qcv_lhs(cp)), render(qcv_rhs(cp)), None, None)
        return _SKIP
    return _exact_verdict(qcv_lhs(cp), qcv_rhs(cp))


def _chk_sears(p, d, opts) -> Verdict:
    args = tuple(p[k] for k in "abcdefg")
    try:
        return _exact_verdict(sears_lhs(*args), sears_rhs(*args))
    except UnbalancedParameters:
        return _SKIP


def _chk_gensum(p, d, opts) -> Verdict:
    sp = SaalschutzParams(p["N"], p["sigma"], p["ell"], p["M"], p["L1"], p["L2"])
    try:
        sp.validate()
    except InvalidParams:
        return _SKIP
    if sp.M < 0:
        return _SKIP
    return _exact_verdict(gensum_lhs(sp), gensum_rhs(sp))


def _chk_burge_bt(p, d, opts) -> Verdict:
    labels = (p["p"], p["pprime"], p["r"], p["s"])
    m1, l1, m2, l2 = p["M1"], p["L1"], p["M2"], p["L2"]
    if min(m1, l1, m2, l2) < 0 or not classic_bt_safe(*labels, m1, l1, m2, l2):
        return _SKIP
    pl, pp, r, s = labels
    direct = burge_x(BurgeParams(pl, pl + pp, r, r + s, m1, l1, m2, l2))
    route = transform_bt(
        m1, l1, m2, l2, lambda a, b, c, e: burge_x(BurgeParams(pl, pp, r, s, a, b, c, e))
    )
    return _exact_verdict(direct, route)


def _chk_burge_bt2(p, d, opts) -> Verdict:
    labels = (p["p"], p["pprime"], p["r"], p["s"])
    m1, l1, m2, l2 = p["M1"], p["L1"], p["M2"], p["L2"]
    if min(m1, l1, m2, l2) < 0 or not classic_bt2_safe(*labels, m1, l1, m2, l2):
        return _SKIP
    pl, pp, r, s = labels
    direct = burge_x(
        BurgeParams(pp, pl + pp, s - (m1 - m2), r + s + (l1 - l2), m1, l1, m2, l2)
    )
    route = transform_bt2(
        m1, l1, m2, l2, lambda a, b, c, e: burge_x(BurgeParams(pl, pp, r, s, a, b, c, e))
    )
    return _exact_verdict(direct, route)


def _chk_burge_traf(p, opts, which: str) -> Verdict:
    labels = (p["p"], p["pprime"], p["r"], p["s"])
    n, sg, m, l = p["N"], p["sigma"], p["M"], p["L"]
    pl, pp, r, s = labels
    if which == "traf1":
        child_labels = (pl, pl + n * pp, r, r + n * s)
    else:
        child_labels = (pp, n * pl + pp, s, n * r + s)
    try:
        # the probe only feeds the sufficiency scan; label validity applies
        # to the transformed side
        probe = BurgeParams(*labels, m, l, m, l, N=n, sigma=sg)
        direct_bp = BurgeParams(*child_labels, m, l, m, l, N=n, sigma=sg)
        direct_bp.validate()
        if not sufficiency(probe, "sufsym"):
            return _SKIP
    except InvalidParams:
        return _SKIP

    def child(a, b):
        return burge_x(BurgeParams(pl, pp, r, s, a, b, a, b))

    direct = burge_xn(direct_bp)
    if which == "traf1":
        route = transform_traf1(n, sg, m, l, child)
    else:
        route = transform_traf2(n, sg, m, l, child)
    return _exact_verdict(direct, route)


def _chk_traf1(p, d, opts) -> Verdict:
    return _chk_burge_traf(p, opts, "traf1")


def _chk_traf2(p, d, opts) -> Verdict:
    return _chk_burge_traf(p, opts, "traf2")


_FORM_LABELS: Dict[str, Callable[[int], Tuple[int, int, int, int]]] = {
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

_CLASSIC_NAMES = ("initial", "nn", "euler", "ising", "rr")


def _chk_forms(p, d, opts) -> Verdict:
    name, n, sg, m, l = p["name"], p["N"], p["sigma"], p["M"], p["L"]
    if name in _CLASSIC_NAMES and n != 1:
        return _SKIP
    if name == "slater" and n != 2:
        return _SKIP
    labels = _FORM_LABELS[name](n)
    try:
        bp = BurgeParams(*labels, m, l, m, l, N=n, sigma=sg)
        bp.validate()
        want = closed_form(name, m, l, n, sg)
    except InvalidParams:
        return _SKIP
    return _exact_verdict(burge_xn(bp), want)


def _chk_tree(p, d, opts) -> Verdict:
    try:
        nodes = build_tree(p["depth"], p["N"], p["sigma"], verify_grid=2)
    except InvalidParams:
        return _SKIP
    bad = [nd for nd in nodes if nd.verified is False]
    if not bad:
        return _EQUAL
    nd = bad[0]
    # recover a concrete diff: closed form first, then the edge to the parent
    shift = Fraction(nd.sigma, 2)
    for m in range(0, 3):
        for k in range(0, 3):
            l = k + shift
            direct = burge_xn(
                BurgeParams(nd.p, nd.pprime, nd.r, nd.s, m, l, m, l, N=nd.N, sigma=nd.sigma)
            )
            if nd.closed_form_name is not None:
                want = closed_form(nd.closed_form_name, m, l, nd.N, nd.sigma)
                if direct != want:
                    return ("mismatch", render(direct), render(want),
                            render(direct - want), None)
            route = _tree_edge_route(nodes, nd, m, l)
            if route is not None and direct != route:
                return ("mismatch", render(direct), render(route),
                        render(direct - route), None)
    return ("mismatch", None, None, render(ONE), None)


def _tree_edge_route(nodes, nd, m: int, l) -> Optional[QPoly]:
    if nd.parent_index is None:
        return None
    pa = nodes[nd.parent_index]

    def through_parent(a, b, c, e):
        return burge_x(BurgeParams(pa.p, pa.pprime, pa.r, pa.s, a, b, c, e))

    if nd.transform_tag == "bt":
        return transform_bt(m, int(l), m, int(l), through_parent)
    if nd.transform_tag == "bt2":
        return transform_bt2(m, int(l), m, int(l), through_parent)
    probe = BurgeParams(pa.p, pa.pprime, pa.r, pa.s, m, l, m, l, N=nd.N, sigma=nd.sigma)
    if not sufficiency(probe, "sufsym"):
        return None
    tf = transform_traf1 if nd.transform_tag == "traf1" else transform_traf2
    return tf(nd.N, nd.sigma, m, l, lambda a, b: through_parent(a, b, a, b))


def _chk_tnew(p, d, opts) -> Verdict:
    n, l, ell = p["N"], p["L"], p["ell"]
    try:
        q = MultinomialQuery(n, l, Fraction(ell, 2))
        q.validate()
    except InvalidParams:
        return _SKIP
    return _exact_verdict(tnew_rhs(n, l, ell, l % 2), t_multinomial(q))


def _chk_classical(p, d, opts) -> Verdict:
    n, l, a = p["N"], p["L"], p["a"]
    try:
        q = MultinomialQuery(n, l, a)
        q.validate()
    except InvalidParams:
        return _SKIP
    got = classical_limit(t_multinomial(q))
    want = classical_multinomial(n, l, a)
    if got == want:
        return _EQUAL
    return ("mismatch", str(got), str(want), str(got - want), None)


def _chk_diff(p, d, opts) -> Verdict:
    try:
        lhs, rhs = difference_sides(p["N"], p["L"], p["ell"], p["n"])
    except InvalidParams:
        return _SKIP
    return _exact_verdict(lhs, rhs)


def _chk_durfee(p, d, opts) -> Verdict:
    try:
        lhs, rhs = durfee_sides(p["ell"], Truncation(d))
    except InvalidParams:
        return _SKIP
    return _trunc_verdict(lhs, rhs, d)


def _chk_limlm(p, d, opts) -> Verdict:
    try:
        lhs, rhs = limlm_sides(p["N"], p["ell"], p["sigma"], Truncation(d))
    except InvalidParams:
        return _SKIP
    return _trunc_verdict(lhs, rhs, d)


def _chk_cbp(p, d, opts) -> Verdict:
    try:
        bq = BaileyPairQuery(p["N"], p["ell"], p["M"], p["sigma"], Truncation(d))
        fail = conjugate_pair_failure(bq)
    except InvalidParams:
        return _SKIP
    if fail is None:
        return ("equal", None, None, None, d)
    L, gamma, want = fail
    t = Truncation(d)
    gt, wt = gamma.truncate(t), want.truncate(t)
    return ("mismatch", render(gt), render(wt), render(gt - wt), d, {"L": L})


def _chk_strings(p, d, opts) -> Verdict:
    n, m, ell = p["N"], p["m"], p["ell"]
    sigma = 1 if ell == n else 0
    try:
        sq = StringFunctionQuery(n, m, ell, sigma, Truncation(d))
        sq.validate()
    except InvalidParams:
        return _SKIP
    spin = string_spinon(sq)
    ferm = string_fermionic(sq)
    t = Truncation(d)
    if not truncated_equal(spin, ferm, t):
        st, ft = spin.truncate(t), ferm.truncate(t)
        return ("mismatch", render(st), render(ft), render(st - ft), d)
    if ell in (0, n):
        lp = string_lp(sq)
        if not truncated_equal(ferm, lp, t):
            ft, lt = ferm.truncate(t), lp.truncate(t)
            return ("mismatch", render(ft), render(lt), render(ft - lt), d)
    return ("equal", None, None, None, d)


def _chk_products(p, d, opts) -> Verdict:
    t = Truncation(d)
    return _trunc_verdict(product_side(p["family"], t), sum_side(p["family"], t), d)


def _partition_counts(limit: int) -> List[int]:
    ways = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            ways[n] += ways[n - part]
    return ways


def _chk_partitions(p, d, opts) -> Verdict:
    limit = p["limit"]
    if limit < 0:
        return _SKIP
    lhs = euler_inverse_truncated(Truncation(limit))
    rhs = QPoly({n: c for n, c in enumerate(_partition_counts(limit))})
    return _trunc_verdict(lhs, rhs, limit)


# --- default grids ------------------------------------------------------------------


def _grid_qs2() -> Iterable[Dict]:
    for l1, l2, m, ell in iproduct(range(-6, 7), repeat=4):
        yield {"L1": l1, "L2": l2, "M": m, "ell": ell}


def _grid_qcv() -> Iterable[Dict]:
    for l1, l2, ell in iproduct(range(-5, 6), repeat=3):
        yield {"L1": l1, "L2": l2, "ell": ell}


def _grid_sears() -> Iterable[Dict]:
    # deterministic draw of balanced tuples a+b = c+d+f from the [-6,8]^7 box
    rng = random.Random(97231)
    seen = set()
    while len(seen) < 1200:
        a, c, d, e, f, g = (rng.randint(-6, 8) for _ in range(6))
        b = c + d + f - a
        if not -6 <= b <= 8:
            continue
        t = (a, b, c, d, e, f, g)
        if t in seen:
            continue
        seen.add(t)
        yield dict(zip("abcdefg", t))


def _grid_gensum() -> Iterable[Dict]:
    halves = [Fraction(t, 2) for t in range(0, 11)]
    for n in range(1, 5):
        for sigma in (0, 1):
            for ell in range(-4, 5):
                if (ell + sigma * n) % 2:
                    continue
                half = Fraction(ell + sigma, 2)
                good = [x for x in halves if (x + half).denominator == 1]
                for m in range(0, 7):
                    for l1 in good:
                        for l2 in good:
                            yield {"N": n, "sigma": sigma, "ell": ell, "M": m,
                                   "L1": l1, "L2": l2}


_BT_LABELS = ((1, 2, 0, 1), (2, 3, 1, 1), (1, 3, 0, 1))


def _grid_bt() -> Iterable[Dict]:
    for labels in _BT_LABELS:
        for m1, l1, m2, l2 in iproduct(range(0, 4), repeat=4):
            p, pp, r, s = labels
            yield {"p": p, "pprime": pp, "r": r, "s": s,
                   "M1": m1, "L1": l1, "M2": m2, "L2": l2}


def _grid_traf(parents: Sequence[Tuple[int, int, int, int]]) -> Iterable[Dict]:
    for p, pp, r, s in parents:
        for n in (2, 3):
            for sigma in (0, 1) if n % 2 == 0 else (0,):
                for m in range(0, 6):
                    for k in range(0, 6):
                        yield {"p": p, "pprime": pp, "r": r, "s": s, "N": n,
                               "sigma": sigma, "M": m, "L": k + Fraction(sigma, 2)}


def _grid_traf1() -> Iterable[Dict]:
    return _grid_traf(((1, 2, 0, 1), (2, 3, 1, 1)))


def _grid_traf2() -> Iterable[Dict]:
    return _grid_traf(((1, 2, 0, 1), (1, 3, 0, 1)))


def _grid_forms() -> Iterable[Dict]:
    for name in _CLASSIC_NAMES:
        for m in range(0, 9):
            for l in range(0, 9):
                yield {"name": name, "N": 1, "sigma": 0, "M": m, "L": l}
    for name in ("tadpole", "euler_n", "a_n", "rr_n", "slater"):
        for n in (2,) if name == "slater" else (2, 3):
            for sigma in (0, 1) if n % 2 == 0 else (0,):
                for m in range(0, 6):
                    for k in range(0, 6):
                        yield {"name": name, "N": n, "sigma": sigma, "M": m,
                               "L": k + Fraction(sigma, 2)}


def _grid_tree() -> Iterable[Dict]:
    yield {"depth": 3, "N": 1, "sigma": 0}


def _grid_tnew() -> Iterable[Dict]:
    for n in (2, 3, 4):
        for l in range(0, 9):
            for ell in range(-n * l, n * l + 1, 2):
                yield {"N": n, "L": l, "ell": ell}


def _grid_classical() -> Iterable[Dict]:
    for n in range(1, 5):
        for l in range(0, 7):
            for two_a in range(-n * l, n * l + 1, 2):
                yield {"N": n, "L": l, "a": Fraction(two_a, 2)}


def _grid_diff() -> Iterable[Dict]:
    for n in (3, 4):
        for l in range(0, 7):
            for idx in range(1, n - 1):
                for ell in range(0, n * l + 3):
                    if (idx - ell - n * l) % 2:
                        continue
                    yield {"N": n, "L": l, "ell": ell, "n": idx}


def _grid_durfee() -> Iterable[Dict]:
    for ell in range(0, 4):
        yield {"ell": ell}


def _grid_limlm() -> Iterable[Dict]:
    for n in (1, 2, 3):
        for sigma in (0, 1):
            for ell in range(0, 5):
                yield {"N": n, "ell": ell, "sigma": sigma}


def _grid_cbp() -> Iterable[Dict]:
    for n in (1, 2, 3):
        for ell in (0, 1, 2):
            for sigma in (0, 1):
                for m in (3, 5, None):
                    yield {"N": n, "ell": ell, "sigma": sigma, "M": m}


def _grid_strings() -> Iterable[Dict]:
    for n in (1, 2, 3):
        for ell in range(0, n + 1):
            for m in range(ell % 2, 7, 2):
                yield {"N": n, "m": m, "ell": ell}


def _grid_products() -> Iterable[Dict]:
    for family in ("ising", "rr", "slater"):
        yield {"family": family}


def _grid_partitions() -> Iterable[Dict]:
    yield {"limit": 50}


# --- registry -----------------------------------------------------------------------


@dataclass(frozen=True)
class IdentitySpec:
    identity_id: str
    params: Tuple[ParamSpec, ...]
    check: Callable
    grid: Callable[[], Iterable[Dict]]
    defaults: Dict[str, Tuple]
    default_trunc: Optional[int] = None


def _ps(*pairs, **choices) -> Tuple[ParamSpec, ...]:
    out = []
    for name, kind in pairs:
        out.append(ParamSpec(name, kind, choices.get(name)))
    return tuple(out)


def _mk(identity_id, pairs, check, grid, defaults, default_trunc=None, **choices):
    return IdentitySpec(
        identity_id, _ps(*pairs, **choices), check, grid,
        {k: tuple(v) for k, v in defaults.items()}, default_trunc,
    )


_I6 = tuple(range(-6, 7))
_HALVES5 = tuple(Fraction(t, 2) for t in range(0, 11))

REGISTRY: Dict[str, IdentitySpec] = {
    spec.identity_id: spec
    for spec in [
        _mk("qs2",
            [("L1", "int"), ("L2", "int"), ("M", "int"), ("ell", "int")],
            _chk_qs2, _grid_qs2,
            {"L1": _I6, "L2": _I6, "M": _I6, "ell": _I6}),
        _mk("qcv",
            [("L1", "int"), ("L2", "int"), ("ell", "int")],
            _chk_qcv, _grid_qcv,
            {"L1": tuple(range(-5, 6)), "L2": tuple(range(-5, 6)),
             "ell": tuple(range(-5, 6))}),
        _mk("sears",
            [(k, "int") for k in "abcdefg"],
            _chk_sears, _grid_sears,
            {k: tuple(range(-6, 9)) for k in "abcdefg"}),
        _mk("gensum",
            [("N", "int"), ("sigma", "int"), ("ell", "int"), ("M", "int"),
             ("L1", "rat"), ("L2", "rat")],
            _chk_gensum, _grid_gensum,
            {"N": (1, 2, 3, 4), "sigma": (0, 1), "ell": tuple(range(-4, 5)),
             "M": tuple(range(0, 7)), "L1": _HALVES5, "L2": _HALVES5}),
        _mk("burge.bt",
            [("p", "int"), ("pprime", "int"), ("r", "int"), ("s", "int"),
             ("M1", "int"), ("L1", "int"), ("M2", "int"), ("L2", "int")],
            _chk_burge_bt, _grid_bt,
            {"p": (1, 2), "pprime": (2, 3), "r": (0, 1), "s": (1,),
             "M1": tuple(range(0, 4)), "L1": tuple(range(0, 4)),
             "M2": tuple(range(0, 4)), "L2": tuple(range(0, 4))}),
        _mk("burge.bt2",
            [("p", "int"), ("pprime", "int"), ("r", "int"), ("s", "int"),
             ("M1", "int"), ("L1", "int"), ("M2", "int"), ("L2", "int")],
            _chk_burge_bt2, _grid_bt,
            {"p": (1, 2), "pprime": (2, 3), "r": (0, 1), "s": (1,),
             "M1": tuple(range(0, 4)), "L1": tuple(range(0, 4)),
             "M2": tuple(range(0, 4)), "L2": tuple(range(0, 4))}),
        _mk("burge.traf1",
            [("p", "int"), ("pprime", "int"), ("r", "int"), ("s", "int"),
             ("N", "int"), ("sigma", "int"), ("M", "int"), ("L", "rat")],
            _chk_traf1, _grid_traf1,
            {"p": (1, 2), "pprime": (2, 3), "r": (0, 1), "s": (1,),
             "N": (2, 3), "sigma": (0, 1), "M": tuple(range(0, 6)),
             "L": tuple(range(0, 6))}),
        _mk("burge.traf2",
            [("p", "int"), ("pprime", "int"), ("r", "int"), ("s", "int"),
             ("N", "int"), ("sigma", "int"), ("M", "int"), ("L", "rat")],
            _chk_traf2, _grid_traf2,
            {"p": (1, 2), "pprime": (2, 3), "r": (0, 1), "s": (1,),
             "N": (2, 3), "sigma": (0, 1), "M": tuple(range(0, 6)),
             "L": tuple(range(0, 6))}),
        _mk("burge.forms",
            [("name", "word"), ("N", "int"), ("sigma", "int"),
             ("M", "int"), ("L", "rat")],
            _chk_forms, _grid_forms,
            {"name": tuple(_FORM_LABELS), "N": (1, 2, 3), "sigma": (0, 1),
             "M": tuple(range(0, 6)), "L": tuple(range(0, 6))},
            name=tuple(_FORM_LABELS)),
        _mk("burge.tree",
            [("depth", "int"), ("N", "int"), ("sigma", "int")],
            _chk_tree, _grid_tree,
            {"depth": (3,), "N": (1,), "sigma": (0,)}),
        _mk("multinom.tnew",
            [("N", "int"), ("L", "int"), ("ell", "int")],
            _chk_tnew, _grid_tnew,
            {"N": (2, 3, 4), "L": tuple(range(0, 9)),
             "ell": tuple(range(-8, 9))}),
        _mk("multinom.classical",
            [("N", "int"), ("L", "int"), ("a", "rat")],
            _chk_classical, _grid_classical,
            {"N": (1, 2, 3, 4), "L": tuple(range(0, 7)),
             "a": tuple(Fraction(t, 2) for t in range(-12, 13))}),
        _mk("multinom.diff",
            [("N", "int"), ("L", "int"), ("ell", "int"), ("n", "int")],
            _chk_diff, _grid_diff,
            {"N": (3, 4), "L": tuple(range(0, 7)),
             "ell": tuple(range(0, 13)), "n": (1, 2)}),
        _mk("series.durfee",
            [("ell", "int")], _chk_durfee, _grid_durfee,
            {"ell": (0, 1, 2, 3)}, default_trunc=25),
        _mk("series.limlm",
            [("N", "int"), ("ell", "int"), ("sigma", "int")],
            _chk_limlm, _grid_limlm,
            {"N": (1, 2, 3), "ell": (0, 1, 2, 3, 4), "sigma": (0, 1)},
            default_trunc=25),
        _mk("series.cbp",
            [("N", "int"), ("ell", "int"), ("sigma", "int"), ("M", "intinf")],
            _chk_cbp, _grid_cbp,
            {"N": (1, 2, 3), "ell": (0, 1, 2), "sigma": (0, 1),
             "M": (3, 5, None)},
            default_trunc=25),
        _mk("series.strings",
            [("N", "int"), ("m", "int"), ("ell", "int")],
            _chk_strings, _grid_strings,
            {"N": (1, 2, 3), "m": tuple(range(0, 7)),
             "ell": (0, 1, 2, 3)},
            default_trunc=20),
        _mk("series.products",
            [("family", "word")], _chk_products, _grid_products,
            {"family": ("ising", "rr", "slater")},
            default_trunc=30, family=("ising", "rr", "slater")),
        _mk("qpoly.partitions",
            [("limit", "int")], _chk_partitions, _grid_partitions,
            {"limit": (50,)}),
    ]
}


# --- evaluation registry ------------------------------------------------------------


def _eval_tmultinomial(p, d):
    q = MultinomialQuery(p["N"], p["L"], p["a"], p["n"])
    q.validate()
    return t_multinomial(q)


def _eval_string(fn):
    def run(p, d):
        sq = StringFunctionQuery(p["N"], p["m"], p["ell"], p["sigma"], Truncation(d))
        return fn(sq)

    return run


def _eval_x(p, d):
    bp = BurgeParams(p["p"], p["pprime"], p["r"], p["s"],
                     p["M1"], p["L1"], p["M2"], p["L2"],
                     N=p["N"], sigma=p["sigma"])
    bp.validate()
    return burge_xn(bp)


EVAL_REGISTRY: Dict[str, Tuple[Tuple[ParamSpec, ...], Dict, Callable, Optional[int]]] = {
    "qbin": (_ps(("m", "int"), ("n", "int")), {},
             lambda p, d: qbin_standard(p["m"], p["n"]), None),
    "qpoch": (_ps(("s", "int"), ("m", "int")), {},
              lambda p, d: qpoch(p["s"], p["m"]), None),
    "euler": (_ps(("limit", "int")), {},
              lambda p, d: euler_inverse_truncated(Truncation(p["limit"])), None),
    "tmultinomial": (_ps(("N", "int"), ("L", "int"), ("a", "rat"), ("n", "int")),
                     {"n": 0}, _eval_tmultinomial, None),
    "tnew": (_ps(("N", "int"), ("L", "int"), ("ell", "int")), {},
             lambda p, d: tnew_rhs(p["N"], p["L"], p["ell"], p["L"] % 2), None),
    "abf": (_ps(("p", "int"), ("s", "int"), ("L", "int")), {},
            lambda p, d: abf_config_sum(p["p"], p["s"], p["L"]), None),
    "x": (_ps(("p", "int"), ("pprime", "int"), ("r", "int"), ("s", "int"),
              ("M1", "int"), ("L1", "rat"), ("M2", "int"), ("L2", "rat"),
              ("N", "int"), ("sigma", "int")),
          {"N": 1, "sigma": 0}, _eval_x, None),
    "closed": (_ps(("name", "word"), ("M", "int"), ("L", "rat"),
                   ("N", "int"), ("sigma", "int"), name=tuple(_FORM_LABELS)),
               {"N": 1, "sigma": 0},
               lambda p, d: closed_form(p["name"], p["M"], p["L"], p["N"], p["sigma"]),
               None),
    "product": (_ps(("family", "word"), family=("ising", "rr", "slater")), {},
                lambda p, d: product_side(p["family"], Truncation(d)), 30),
    "sumside": (_ps(("family", "word"), family=("ising", "rr", "slater")), {},
                lambda p, d: sum_side(p["family"], Truncation(d)), 30),
    "string.spinon": (_ps(("N", "int"), ("m", "int"), ("ell", "int"), ("sigma", "int")),
                      {"sigma": 0}, _eval_string(string_spinon), 20),
    "string.fermionic": (_ps(("N", "int"), ("m", "int"), ("ell", "int"), ("sigma", "int")),
                         {"sigma": 0}, _eval_string(string_fermionic), 20),
    "string.lp": (_ps(("N", "int"), ("m", "int"), ("ell", "int"), ("sigma", "int")),
                  {"sigma": 0}, _eval_string(string_lp), 20),
}


# --- sweep execution ----------------------------------------------------------------


@dataclass
class SweepConfig:
    identity_id: str
    ranges: Dict[str, List]  # empty dict means the embedded default grid
    trunc: Optional[int] = None
    jobs: int = 1
    out: Optional[str] = None
    fmt: str = "json"
    include_exceptional: bool = False
    timing: bool = False


def _points_for(spec: IdentitySpec, ranges: Dict[str, List]) -> List[Dict]:
    if not ranges:
        return list(spec.grid())
    axes = []
    for ps in spec.params:
        axes.append([(ps.name, v) for v in ranges.get(ps.name, spec.defaults[ps.name])])
    total = 1
    for ax in axes:
        total *= len(ax)
        if total > MAX_SWEEP_POINTS:
            raise ConfigError(
                f"sweep would exceed {MAX_SWEEP_POINTS} points; narrow the ranges"
            )
    return [dict(combo) for combo in iproduct(*axes)]


def _eval_point(task):
    ident, items, d, opts = task
    spec = REGISTRY[ident]
    params = dict(items)
    t0 = time.perf_counter()
    note = None
    try:
        verdict, lhs, rhs, diff, used, *witness = spec.check(params, d, opts)
    except Exception as ex:  # one failing point is an error row, never an aborted sweep
        verdict, lhs, rhs, diff, used, witness = "error", None, None, None, None, None
        note = f"{type(ex).__name__}: {ex}"
        if not isinstance(ex, QIdentError):
            note += "\n" + traceback.format_exc().rstrip()
    row: Dict[str, object] = {
        "identity_id": ident,
        "params": {k: _encode_value(v) for k, v in items},
        "verdict": verdict,
    }
    if lhs is not None:
        row["lhs_repr"] = lhs
    if rhs is not None:
        row["rhs_repr"] = rhs
    if diff is not None:
        row["diff_repr"] = diff
    if used is not None:
        row["truncation"] = used
    if witness:
        row["witness"] = witness[0]
    row["elapsed_ms"] = int((time.perf_counter() - t0) * 1000) if opts.get("timing") else 0
    return row, note


_COLORS = {"equal": "\x1b[32m", "mismatch": "\x1b[31m", "error": "\x1b[31m",
           "skipped_precondition": "\x1b[33m"}


class _Sink:
    def __init__(self, stream, fmt: str, color: bool):
        self.stream = stream
        self.fmt = fmt
        self.color = color

    def _paint(self, verdict: str) -> str:
        if self.color and verdict in _COLORS:
            return f"{_COLORS[verdict]}{verdict}\x1b[0m"
        return verdict

    def row(self, row: Dict) -> None:
        if self.fmt == "json":
            self.stream.write(json.dumps(row) + "\n")
            return
        parts = [self._paint(row["verdict"]), row["identity_id"]]
        parts.extend(f"{k}={v}" for k, v in row["params"].items())
        if "truncation" in row:
            parts.append(f"D={row['truncation']}")
        if "diff_repr" in row:
            parts.append(f"diff[{row['diff_repr']}]")
        elif "lhs_repr" in row:
            parts.append(f"lhs[{row['lhs_repr']}] rhs[{row['rhs_repr']}]")
        self.stream.write(" ".join(parts) + "\n")

    def summary(self, ident: str, counts: Dict[str, int], exit_code: int,
                elapsed_ms: int) -> None:
        if self.fmt == "json":
            obj = {
                "summary": True,
                "identity_id": ident,
                "grid_version": GRID_VERSION,
                "total": sum(counts.values()),
                "equal": counts["equal"],
                "mismatch": counts["mismatch"],
                "skipped_precondition": counts["skipped_precondition"],
                "error": counts["error"],
                "exit_code": exit_code,
                "elapsed_ms": elapsed_ms,
            }
            self.stream.write(json.dumps(obj) + "\n")
            return
        self.stream.write(
            f"# {ident}: total={sum(counts.values())} equal={counts['equal']}"
            f" mismatch={counts['mismatch']}"
            f" skipped_precondition={counts['skipped_precondition']}"
            f" error={counts['error']} exit={exit_code}\n"
        )


def _run_family(spec: IdentitySpec, cfg: SweepConfig, sink: _Sink,
                pool: Optional[ProcessPoolExecutor]) -> Dict[str, int]:
    points = _points_for(spec, cfg.ranges)
    d = cfg.trunc if cfg.trunc is not None else spec.default_trunc
    opts = {"include_exceptional": cfg.include_exceptional, "timing": cfg.timing}
    tasks = [(spec.identity_id, tuple(pt.items()), d, opts) for pt in points]
    counts = {"equal": 0, "mismatch": 0, "skipped_precondition": 0, "error": 0}
    t0 = time.perf_counter()
    if pool is None:
        results = map(_eval_point, tasks)
    else:
        results = pool.map(_eval_point, tasks, chunksize=max(1, len(tasks) // 256))
    for row, note in results:
        counts[row["verdict"]] += 1
        sink.row(row)
        if note:
            print(f"{spec.identity_id} {row['params']}: {note}", file=sys.stderr)
    exit_code = 0 if counts["mismatch"] == 0 and counts["error"] == 0 else 1
    elapsed = int((time.perf_counter() - t0) * 1000) if cfg.timing else 0
    sink.summary(spec.identity_id, counts, exit_code, elapsed)
    return counts


def _open_out(path: Optional[str]):
    if path is None:
        return sys.stdout, False
    return open(path, "w"), True


def _want_color(fmt: str, stream) -> bool:
    if fmt != "text" or os.environ.get("NO_COLOR") is not None:
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _sweep_exit(counts: Dict[str, int]) -> int:
    return 0 if counts["mismatch"] == 0 and counts["error"] == 0 else 1


# --- subcommands --------------------------------------------------------------------


def _parse_overrides(spec_params: Sequence[ParamSpec], extras: List[str],
                     multi: bool) -> Dict[str, List]:
    by_name = {ps.name: ps for ps in spec_params}
    out: Dict[str, List] = {}
    i = 0
    while i < len(extras):
        tok = extras[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            name, text = body.split("=", 1)
            i += 1
        else:
            name = body
            if i + 1 >= len(extras):
                raise ConfigError(f"--{name}: missing value")
            text = extras[i + 1]
            i += 2
        ps = by_name.get(name)
        if ps is None:
            raise ConfigError(f"unknown parameter --{name}")
        vals = _parse_values(text, ps)
        if not multi and len(vals) != 1:
            raise ConfigError(f"--{name}: expected a single value")
        out[name] = vals
    return out


def cmd_verify(args, extras) -> int:
    spec = REGISTRY.get(args.identity)
    if spec is None:
        known = ", ".join(REGISTRY)
        raise ConfigError(f"unknown identity {args.identity!r}; known: {known}")
    ranges = _parse_overrides(spec.params, extras, multi=True)
    cfg = SweepConfig(
        identity_id=spec.identity_id,
        ranges=ranges,
        trunc=args.trunc,
        jobs=args.jobs,
        out=args.out,
        fmt=args.format,
        include_exceptional=args.include_exceptional,
        timing=args.timing,
    )
    stream, owned = _open_out(cfg.out)
    try:
        sink = _Sink(stream, cfg.fmt, _want_color(cfg.fmt, stream))
        if cfg.jobs > 1:
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                counts = _run_family(spec, cfg, sink, pool)
        else:
            counts = _run_family(spec, cfg, sink, None)
    finally:
        if owned:
            stream.close()
    return _sweep_exit(counts)


def cmd_suite(args) -> int:
    stream, owned = _open_out(args.out)
    total = {"equal": 0, "mismatch": 0, "skipped_precondition": 0, "error": 0}
    try:
        sink = _Sink(stream, args.format, _want_color(args.format, stream))
        pool = ProcessPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else None
        try:
            for spec in REGISTRY.values():
                cfg = SweepConfig(
                    identity_id=spec.identity_id,
                    ranges={},
                    jobs=args.jobs,
                    fmt=args.format,
                    include_exceptional=True,
                    timing=args.timing,
                )
                counts = _run_family(spec, cfg, sink, pool)
                for k, v in counts.items():
                    total[k] += v
        finally:
            if pool is not None:
                pool.shutdown()
        sink.summary("suite", total, _sweep_exit(total), 0)
    finally:
        if owned:
            stream.close()
    return _sweep_exit(total)


def cmd_tree(args) -> int:
    if args.depth < 0 or args.depth > TREE_DEPTH_CAP:
        raise ConfigError(f"depth must lie in 0..{TREE_DEPTH_CAP}")
    try:
        nodes = build_tree(args.depth, args.N, args.sigma, verify_grid=args.grid)
    except InvalidParams as ex:
        raise ConfigError(str(ex))
    rows = [
        {
            "labels": [nd.p, nd.pprime, nd.r, nd.s],
            "N": nd.N,
            "sigma": nd.sigma,
            "depth": nd.depth,
            "parent_index": nd.parent_index,
            "transform_tag": nd.transform_tag,
            "closed_form_name": nd.closed_form_name,
            "verified": nd.verified,
        }
        for nd in nodes
    ]
    doc = {
        "grid_version": GRID_VERSION,
        "depth": args.depth,
        "N": args.N,
        "sigma": args.sigma,
        "verify_grid": args.grid,
        "all_verified": all(nd.verified is not False for nd in nodes),
        "nodes": rows,
    }
    stream, owned = _open_out(args.out)
    try:
        if args.format == "json":
            stream.write(json.dumps(doc, indent=1) + "\n")
        else:
            for nd in nodes:
                tag = nd.transform_tag or "seed"
                name = nd.closed_form_name or "-"
                stream.write(
                    f"depth={nd.depth} ({nd.p},{nd.pprime},{nd.r},{nd.s})"
                    f" N={nd.N} sigma={nd.sigma} via={tag} form={name}"
                    f" verified={nd.verified}\n"
                )
    finally:
        if owned:
            stream.close()
    return 0 if doc["all_verified"] else 1


def cmd_eval(args, extras) -> int:
    entry = EVAL_REGISTRY.get(args.identity)
    if entry is None:
        known = ", ".join(EVAL_REGISTRY)
        raise ConfigError(f"unknown identity {args.identity!r}; known: {known}")
    spec_params, defaults, fn, default_trunc = entry
    given = _parse_overrides(spec_params, extras, multi=False)
    params: Dict[str, object] = {}
    for ps in spec_params:
        if ps.name in given:
            params[ps.name] = given[ps.name][0]
        elif ps.name in defaults:
            params[ps.name] = defaults[ps.name]
        else:
            raise ConfigError(f"missing required parameter --{ps.name}")
    d = args.trunc if args.trunc is not None else default_trunc
    try:
        value = fn(params, d)
    except QIdentError as ex:
        raise ConfigError(f"{type(ex).__name__}: {ex}")
    except ValueError as ex:
        raise ConfigError(str(ex))
    stream, owned = _open_out(args.out)
    try:
        stream.write(render(value) + "\n")
    finally:
        if owned:
            stream.close()
    return 0


# --- argument parsing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qident",
        description="verify q-series identity families on parameter sweeps",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--trunc", type=int, default=None, metavar="D",
                       help="truncation degree for series families")
        p.add_argument("--jobs", type=int, default=1, metavar="W",
                       help="evaluate points with W worker processes")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report stream to PATH instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--timing", action="store_true",
                       help="record real elapsed_ms (breaks byte determinism)")

    pv = sub.add_parser("verify", help="sweep one identity family")
    pv.add_argument("identity")
    pv.add_argument("--include-exceptional", action="store_true",
                    help="record both sides on skipped exceptional points")
    common(pv)

    pt = sub.add_parser("tree", help="expand and verify a transform tree")
    pt.add_argument("--depth", type=int, default=2)
    pt.add_argument("--N", type=int, default=1)
    pt.add_argument("--sigma", type=int, default=0)
    pt.add_argument("--grid", type=int, default=2,
                    help="verification grid bound per node")
    pt.add_argument("--out", default=None, metavar="PATH")
    pt.add_argument("--format", choices=("json", "text"), default="json")

    pe = sub.add_parser("eval", help="evaluate one object to canonical text")
    pe.add_argument("identity")
    pe.add_argument("--trunc", type=int, default=None, metavar="D")
    pe.add_argument("--out", default=None, metavar="PATH")

    ps_ = sub.add_parser("suite", help="run every family on its default grid")
    ps_.add_argument("--jobs", type=int, default=1, metavar="W")
    ps_.add_argument("--out", default=None, metavar="PATH")
    ps_.add_argument("--format", choices=("json", "text"), default="json")
    ps_.add_argument("--timing", action="store_true")

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 2
    try:
        for flag, least in (("trunc", 0), ("jobs", 1), ("grid", 0)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise ConfigError(f"--{flag} must be >= {least}, got {value}")
        if args.cmd == "verify":
            return cmd_verify(args, extras)
        if args.cmd == "eval":
            return cmd_eval(args, extras)
        if extras:
            raise ConfigError(f"unexpected arguments: {' '.join(extras)}")
        if args.cmd == "tree":
            return cmd_tree(args)
        return cmd_suite(args)
    except ConfigError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
