"""Command line front end: sweep-verify identity families, expand transform
trees and check each node as points of burge.forms and of its edge's family,
and evaluate single objects to canonical text.

Each verify family is one declarative Family record.  Its axes, listed in
grid order, are value sequences, rules over the values chosen before them
(L = k + sigma/2, a parity filter on ell), or joint axes of label tuples.
A family with a point function builds each point's parameter record once, as
point(*values) in parameter order; precondition and sides then take that
record, otherwise the values by name.  precondition is the only source of
skipped_precondition; once a point exists, anything raised makes it an error
row.  sides(point, D) gives (lhs, rhs[, witness]), compared exactly or
truncated at D as trunc says.  An override sweep crosses the named axes
first, in parameter order, and fills each unnamed axis by its grid rule;
naming nothing gives the default grid, versioned via GRID_VERSION.

Reports are one JSON object per line with a summary object last.  A row is its
family's head, built once, filled with the point's values, then the verdict
fields.  Workers (the parent, at one job) run one loop per chunk of points: it
reads the family's functions, the flags and the row format once, then gives
each point its verdict, counts it and renders its row, a row without fields
being the head between two ends precomputed per verdict.  At most 2 x jobs
chunks are in flight, and the parent writes their rows in submission order: a
stream is byte-identical across runs for a fixed configuration, and elapsed_ms
stays 0, with no clock read, unless timing is requested explicitly.  A
summary's elapsed_ms then runs from the queueing of the family's first chunk to
the reading of its last: at one job that is the family's own sweep, in a pool
it overlaps the families next to it.  The suite's runs over the whole sweep.

A command loads only the modules it runs: the tables below reach every
layer through the package's lazily loaded modules, read when a family's
point is evaluated or a word value parsed, never while the tables are built.
The pool machinery is imported only for --jobs > 1, and the parent then runs
the modules of the families in the run before its workers fork from it.

Exit codes: 0 when no point mismatches or errors and at least one point was
checked, 1 otherwise (a suite takes the worst of its families) or when the
reader of stdout goes away, 2 for configuration problems (unknown family,
malformed or empty ranges, a parameter given twice, oversized sweeps,
out-of-range flags, --jobs above MAX_JOBS among them, a degree above
MAX_DEGREE from --trunc or a parameter such as --limit, --trunc where nothing
is truncated, an --out path that cannot be opened or written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from itertools import chain, islice, product
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import burge, multinom, qbinom, qpoly, saalschutz, series
from .errors import InvalidParams, QIdentError
from .qpoly import ONE, QPoly, Truncation, render, truncated_equal, twice

GRID_VERSION = "1"
MAX_SWEEP_POINTS = 200_000
MAX_JOBS = 64  # a pool starts all its workers at once
MAX_DEGREE = 1000  # a truncation degree; a product to degree D takes up to D passes of D steps

_VERDICTS = ("equal", "mismatch", "skipped_precondition", "error")


class ConfigError(Exception):
    pass


# --- parameter schemas and value parsing -------------------------------------------


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # int | rat | word | intinf | degree (an int, at most MAX_DEGREE)
    choices: Optional[Callable[[], Sequence[str]]] = None  # a word's values, read when one is parsed


def _ps(*names: str, **choices) -> Tuple[ParamSpec, ...]:
    """Specs from "name" (an integer) or "name:kind"; word choices by keyword."""
    fields = (item.partition(":") for item in names)
    return tuple(ParamSpec(name, kind or "int", choices.get(name)) for name, _, kind in fields)


def _parse_one(text: str, ps: ParamSpec):
    if ps.kind == "word":
        choices = ps.choices() if ps.choices else None
        if choices and text not in choices:
            raise ConfigError(f"--{ps.name}: {text!r} is not one of {', '.join(choices)}")
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
        if ".." in chunk and ps.kind in ("int", "rat", "intinf", "degree"):
            lo_s, hi_s = chunk.split("..", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ConfigError(f"--{ps.name}: range bounds must be integers, got {chunk!r}")
            if lo > hi:
                raise ConfigError(f"--{ps.name}: empty range {chunk!r}")
            if hi - lo >= MAX_SWEEP_POINTS:  # checked before the values are made
                raise ConfigError(f"--{ps.name}: range {chunk!r} exceeds {MAX_SWEEP_POINTS} values")
            vals.extend(range(lo, hi + 1))
        elif chunk:
            vals.append(_parse_one(chunk, ps))
        else:
            raise ConfigError(f"--{ps.name}: empty value")
    if not vals:
        raise ConfigError(f"--{ps.name}: no values given")
    if ps.kind == "degree" and max(vals) > MAX_DEGREE:
        raise ConfigError(f"--{ps.name} must be <= {MAX_DEGREE}, got {max(vals)}")
    return vals


def _encode_value(v):
    if v is None:
        return "inf"
    if type(v) is Fraction:  # not isinstance: the numbers ABCs make that slow per value
        return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


def _json_value(v) -> str:
    """_encode_value(v) as json.dumps writes it; only a witness dict needs the encoder."""
    v = _encode_value(v)
    if type(v) is int:  # not bool, which json writes as true/false
        return int.__repr__(v)
    return encode_basestring_ascii(v) if type(v) is str else json.dumps(v)


# --- families -----------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One verify family; see the module docstring."""

    identity_id: str
    params: Tuple[ParamSpec, ...]
    axes: Tuple[Tuple[Union[str, Tuple[str, ...]], object], ...]
    sides: Callable
    precondition: Optional[Callable] = None  # None: every point applies
    point: Optional[Callable[..., object]] = None  # the record both take, built once per row
    trunc: Union[None, int, str] = None
    # a default grid drawn instead of crossing the axes; overrides still cross them
    sample: Optional[Callable[[], Iterable[Tuple]]] = None
    # under --include-exceptional a skipped point still shows both sides
    exceptional_sides: bool = False
    modules: Tuple = ()  # the lazily loaded modules its points run

    @cached_property  # read for every point
    def names(self) -> Tuple[str, ...]:
        return tuple(ps.name for ps in self.params)

    @cached_property
    def heads(self) -> Tuple[str, str]:
        """A JSON row to the end of its params, a text row after its verdict: %s per value."""
        ident, *names = (text.replace("%", "%%") for text in (self.identity_id, *self.names))
        params = ", ".join(f"{encode_basestring_ascii(n)}: %s" for n in names)
        return (f'{{"identity_id": {encode_basestring_ascii(ident)}, "params": {{{params}}}',
                " ".join([ident, *(f"{n}=%s" for n in names)]))


_LABELS = ("p", "pprime", "r", "s")
_BOUNDS = ("M1", "L1", "M2", "L2")
_PRODUCTS = ("ising", "rr", "slater")
_AGREED = (ONE, ONE)  # the sides when a family's own search found no failing pair


def _sigmas(p: Dict) -> Tuple[int, ...]:
    return (0, 1) if p["N"] % 2 == 0 else (0,)


def _shifted(count: int) -> Callable[[Dict], List[Fraction]]:
    """The rule L = k + sigma/2 for k in 0..count-1."""
    return lambda p: [k + Fraction(p["sigma"], 2) for k in range(count)]


def _sears_sample() -> Iterable[Tuple[int, ...]]:
    # deterministic draw of balanced tuples a+b = c+d+f from the [-6,8]^7 box
    import random  # only this grid draws

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
        yield t


def _gensum_halves(p: Dict) -> List[Fraction]:
    """L in 0, 1/2, ..., 5 with L + (ell+sigma)/2 an integer."""
    return [Fraction(t, 2) for t in range(0, 11) if (t + p["ell"] + p["sigma"]) % 2 == 0]


def _edge_family(identity_id: str, tag: str, parents: Tuple) -> Family:
    """A transform edge over `parents` where burge.edge_applies holds: a classic
    tag at bounds in 0..3, a level tag at symmetric bounds at N = 2, 3.  A point
    is edge_sides's argument tuple, built once."""
    if tag in ("bt", "bt2"):
        params, axes = _BOUNDS, tuple((b, range(0, 4)) for b in _BOUNDS)
        point = lambda p, pprime, r, s, M1, L1, M2, L2: ((p, pprime, r, s), tag, M1, L1, M2, L2)
    else:
        params = ("N", "sigma", "M", "L:rat")
        axes = (("N", (2, 3)), ("sigma", _sigmas), ("M", range(0, 6)), ("L", _shifted(6)))
        point = lambda p, pprime, r, s, N, sigma, M, L: ((p, pprime, r, s), tag, M, L, M, L, N, sigma)
    return Family(identity_id, _ps(*_LABELS, *params), ((_LABELS, parents),) + axes,
                  lambda a, d: burge.edge_sides(*a), lambda a: burge.edge_applies(*a), point,
                  modules=(burge,))


def _form_names() -> Tuple[str, ...]:
    return tuple(burge.CLOSED_FORMS)


def _form_point(name: str, N: int, sigma: int, M: int, L) -> Tuple[str, burge.BurgeParams]:
    """The form's name and its node at the symmetric bounds."""
    return name, burge.BurgeParams(*burge.CLOSED_FORMS[name].labels(N), M, L, M, L, N=N, sigma=sigma)


def _form_levels(p: Dict) -> Tuple[int, ...]:
    level = burge.CLOSED_FORMS[p["name"]].level
    return (2, 3) if level is None else (level,)


def _form_span(p: Dict) -> int:
    """The N = 1 forms run over a wider (M, L) box."""
    return 9 if burge.CLOSED_FORMS[p["name"]].level == 1 else 6


def _form_applies(form: Tuple[str, burge.BurgeParams]) -> bool:
    name, bp = form
    return burge.CLOSED_FORMS[name].level in (None, bp.N) and bp.violation() is None


def _form_sides(form: Tuple[str, burge.BurgeParams], d):
    name, bp = form
    return burge.burge_xn(bp), burge.closed_form(name, bp.M1, bp.L1, bp.N, bp.sigma)


TREE_GRID_CAP = 8  # each node checks (grid + 1)^2 points; at depth 6, grid 8 takes seconds


def tree_verdicts(nodes: List[burge.TreeNode], grid: int) -> List[Tuple]:
    """Each node's (verdict, first mismatch as (family, values, lhs, rhs), notes).

    The row loop runs a node's checks at M, L in 0..grid (L an int at sigma = 0):
    its closed form as burge.forms points, then the edge from its parent as points
    of that edge's family.  The verdict is None when no point was compared, False
    on any mismatch or error, else True."""
    if not 0 <= grid <= TREE_GRID_CAP:
        raise InvalidParams(f"verify_grid must lie in 0..{TREE_GRID_CAP}")
    out = []
    for nd in nodes:
        checks = [("burge.forms", (nd.closed_form_name, nd.N, nd.sigma), 1)] if nd.closed_form_name else []
        if nd.parent_index is not None:
            classic = nd.transform_tag in ("bt", "bt2")
            checks.append((f"burge.{nd.transform_tag}", nodes[nd.parent_index].labels
                           + (() if classic else (nd.N, nd.sigma)), 2 if classic else 1))
        counts, first, notes = Counter(), None, []
        for ident, head, repeat in checks:
            points = [head + (M, k + Fraction(nd.sigma, 2) if nd.sigma else k) * repeat
                      for M in range(grid + 1) for k in range(grid + 1)]
            _, got, more, miss = _eval_chunk(ident, points, None, {
                "include_exceptional": False, "timing": False, "format": "json", "color": False})
            counts.update(got)
            notes += more
            first = first or miss and (ident, points[miss[0]], *miss[1:])
        failed = counts["mismatch"] or counts["error"]
        out.append((False if failed else True if counts["equal"] else None, first, notes))
    return out


def _tree_sides(p: Dict, d):
    nodes = burge.build_tree(p["depth"], p["N"], p["sigma"])
    for index, (verdict, first, notes) in enumerate(tree_verdicts(nodes, 2)):
        if notes:  # an error row carrying the node's notes, never an equal one
            raise QIdentError("\n".join(notes))
        if verdict is False:
            _, values, lhs, rhs = first
            return lhs, rhs, {"node": index, "M": values[-2], "L": _encode_value(values[-1])}
    return _AGREED


def _classical_sides(q: multinom.MultinomialQuery, d):
    """The q -> 1 limit of T_0 against the ordinary multinomial coefficient."""
    got = multinom.classical_limit(multinom.t_multinomial(q))
    want = multinom.classical_multinomial(q.N, q.L, q.a)
    return QPoly.monomial(got), QPoly.monomial(want)


def _bailey(p: Dict, trunc: Optional[Truncation]) -> series.BaileyPairQuery:
    return series.BaileyPairQuery(p["N"], p["ell"], p.get("M"), p["sigma"], trunc)


def _cbp_sides(p: Dict, d):
    fail = series.conjugate_pair_failure(_bailey(p, Truncation(d)))
    if fail is None:
        return _AGREED
    L, gamma, want = fail
    return gamma, want, {"L": L}


def _string_query(p: Dict, trunc: Optional[Truncation]) -> series.StringFunctionQuery:
    sigma = 1 if p["ell"] == p["N"] else 0  # the boundary ell = N carries sigma = 1
    return series.StringFunctionQuery(p["N"], p["m"], p["ell"], sigma, trunc)


def _string_sides(p: Dict, d):
    """Spinon against fermionic form; on the boundary ell in {0, N} the
    fermionic form then meets the Lepowsky-Primc form."""
    sq = _string_query(p, Truncation(d))
    spin, ferm = series.string_spinon(sq), series.string_fermionic(sq)
    if p["ell"] in (0, p["N"]) and truncated_equal(spin, ferm, sq.trunc):
        return ferm, series.string_lp(sq)
    return spin, ferm


def _partition_counts(limit: int) -> List[int]:
    ways = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            ways[n] += ways[n - part]
    return ways


REGISTRY: Dict[str, Family] = {
    fam.identity_id: fam
    for fam in [
        Family("qs2", _ps("L1", "L2", "M", "ell"),
               tuple((k, range(-6, 7)) for k in ("L1", "L2", "M", "ell")),
               lambda c, d: (saalschutz.qs2_lhs(c), saalschutz.qs2_rhs(c)),
               lambda c: not saalschutz.qs2_exceptional(c),
               lambda *values: saalschutz.ClassicParams(*values), exceptional_sides=True,
               modules=(saalschutz,)),
        Family("qcv", _ps("L1", "L2", "ell"),
               tuple((k, range(-5, 6)) for k in ("L1", "L2", "ell")),
               lambda c, d: (saalschutz.qcv_lhs(c), saalschutz.qcv_rhs(c)),
               lambda c: not saalschutz.qcv_exceptional(c),
               lambda L1, L2, ell: saalschutz.ClassicParams(L1, L2, 0, ell), exceptional_sides=True,
               modules=(saalschutz,)),
        Family("sears", _ps(*"abcdefg"),
               tuple((k, range(-6, 9)) for k in "abcdefg"),
               lambda p, d: (saalschutz.sears_lhs(*p.values()), saalschutz.sears_rhs(*p.values())),
               lambda p: p["a"] + p["b"] == p["c"] + p["d"] + p["f"],
               sample=_sears_sample, modules=(saalschutz,)),
        Family("gensum", _ps("N", "sigma", "ell", "M", "L1:rat", "L2:rat"),
               (("N", range(1, 5)), ("sigma", (0, 1)),
                ("ell", lambda p: [e for e in range(-4, 5) if (e + p["sigma"] * p["N"]) % 2 == 0]),
                ("M", range(0, 7)), ("L1", _gensum_halves), ("L2", _gensum_halves)),
               lambda g, d: (saalschutz.gensum_lhs(g), saalschutz.gensum_rhs(g)),
               lambda g: g.M >= 0 and g.violation() is None,
               lambda *values: saalschutz.SaalschutzParams(*values), modules=(saalschutz,)),
        _edge_family("burge.bt", "bt", ((1, 2, 0, 1), (2, 3, 1, 1), (1, 3, 0, 1))),
        _edge_family("burge.bt2", "bt2", ((1, 2, 0, 1), (2, 3, 1, 1), (1, 3, 0, 1))),
        _edge_family("burge.traf1", "traf1", ((1, 2, 0, 1), (2, 3, 1, 1))),
        _edge_family("burge.traf2", "traf2", ((1, 2, 0, 1), (1, 3, 0, 1))),
        Family("burge.forms",
               _ps("name:word", "N", "sigma", "M", "L:rat", name=_form_names),
               (("name", lambda p: _form_names()), ("N", _form_levels), ("sigma", _sigmas),
                ("M", lambda p: range(0, _form_span(p))),
                ("L", lambda p: _shifted(_form_span(p))(p))),
               _form_sides, _form_applies, _form_point, modules=(burge,)),
        Family("burge.tree", _ps("depth", "N", "sigma"),
               (("depth", (3,)), ("N", (1,)), ("sigma", (0,))), _tree_sides,
               lambda p: (0 <= p["depth"] <= burge.TREE_DEPTH_CAP and p["N"] >= 1
                          and p["sigma"] in (0, 1) and (p["N"] % 2 == 0 or p["sigma"] == 0)),
               modules=(burge,)),
        Family("multinom.tnew", _ps("N", "L", "ell"),
               (("N", (2, 3, 4)), ("L", range(0, 9)),
                ("ell", lambda p: range(-p["N"] * p["L"], p["N"] * p["L"] + 1, 2))),
               lambda q, d: (multinom.tnew_rhs(q.N, q.L, twice(q.a, "a"), q.L % 2),
                             multinom.t_multinomial(q)),
               lambda q: q.violation() is None,
               lambda N, L, ell: multinom.MultinomialQuery(N, L, Fraction(ell, 2)),
               modules=(multinom,)),
        Family("multinom.classical", _ps("N", "L", "a:rat"),
               (("N", range(1, 5)), ("L", range(0, 7)),
                ("a", lambda p: [Fraction(t, 2) for t in range(-p["N"] * p["L"],
                                                              p["N"] * p["L"] + 1, 2)])),
               _classical_sides, lambda q: q.violation() is None,
               lambda *values: multinom.MultinomialQuery(*values), modules=(multinom,)),
        Family("multinom.diff", _ps("N", "L", "ell", "n"),
               (("N", (3, 4)), ("L", range(0, 7)), ("n", lambda p: range(1, p["N"] - 1)),
                ("ell", lambda p: [e for e in range(0, p["N"] * p["L"] + 3)
                                   if (p["n"] - e - p["N"] * p["L"]) % 2 == 0])),
               lambda p, d: multinom.difference_sides(p["N"], p["L"], p["ell"], p["n"]),
               lambda p: (1 <= p["n"] < p["N"] - 1 and p["L"] >= 0
                          and (p["n"] - p["ell"] - p["N"] * p["L"]) % 2 == 0),
               modules=(multinom,)),
        Family("series.durfee", _ps("ell"), (("ell", range(0, 4)),),
               lambda p, d: series.durfee_sides(p["ell"], Truncation(d)),
               lambda p: p["ell"] >= 0, trunc=25, modules=(series,)),
        Family("series.limlm", _ps("N", "ell", "sigma"),
               (("N", (1, 2, 3)), ("sigma", (0, 1)), ("ell", range(0, 5))),
               lambda p, d: series.limlm_sides(p["N"], p["ell"], p["sigma"], Truncation(d)),
               lambda p: (_bailey(p, None).violation() is None
                          and (p["ell"] + p["sigma"] * p["N"]) % 2 == 0),
               trunc=25, modules=(series,)),
        Family("series.cbp", _ps("N", "ell", "sigma", "M:intinf"),
               (("N", (1, 2, 3)), ("ell", (0, 1, 2)), ("sigma", (0, 1)), ("M", (3, 5, None))),
               _cbp_sides, lambda p: _bailey(p, None).violation() is None, trunc=25,
               modules=(series,)),
        Family("series.strings", _ps("N", "m", "ell"),
               (("N", (1, 2, 3)), ("ell", lambda p: range(0, p["N"] + 1)),
                ("m", lambda p: range(p["ell"] % 2, 7, 2))),
               _string_sides, lambda p: _string_query(p, None).violation() is None, trunc=20,
               modules=(series, multinom)),
        Family("series.products", _ps("family:word", family=lambda: _PRODUCTS),
               (("family", _PRODUCTS),),
               lambda p, d: (series.product_side(p["family"], Truncation(d)),
                             series.sum_side(p["family"], Truncation(d))),
               trunc=30, modules=(series,)),
        Family("qpoly.partitions", _ps("limit:degree"), (("limit", (50,)),),
               lambda p, d: (qpoly.euler_inverse_truncated(Truncation(d)),
                             QPoly(dict(enumerate(_partition_counts(d))))),
               lambda p: p["limit"] >= 0, trunc="limit"),
    ]
}


# --- evaluation table ---------------------------------------------------------------


def _string_of(name: str) -> Callable:
    return lambda *args: getattr(series, name)(series.StringFunctionQuery(*args))


_STRING = (_ps("N", "m", "ell", "sigma"), {"sigma": 0})

# name -> (parameter specs, defaults, evaluator, default D).  The evaluator
# takes the values in spec order, then Truncation(D) if the entry has a D.
EVAL_REGISTRY: Dict[str, Tuple[Tuple[ParamSpec, ...], Dict, Callable, Optional[int]]] = {
    "qbin": (_ps("m", "n"), {}, lambda m, n: qbinom.qbin_standard(m, n), None),
    "qpoch": (_ps("s", "m"), {}, qpoly.qpoch, None),
    "euler": (_ps("limit:degree"), {}, lambda n: qpoly.euler_inverse_truncated(Truncation(n)), None),
    "tmultinomial": (_ps("N", "L", "a:rat", "n"), {"n": 0},
                     lambda *args: multinom.t_multinomial(multinom.MultinomialQuery(*args)), None),
    "tnew": (REGISTRY["multinom.tnew"].params, {},
             lambda n, l, ell: multinom.tnew_rhs(n, l, ell, l % 2), None),
    "abf": (_ps("p", "s", "L"), {}, lambda *args: multinom.abf_config_sum(*args), None),
    "x": (_ps(*_LABELS, "M1", "L1:rat", "M2", "L2:rat", "N", "sigma"), {"N": 1, "sigma": 0},
          lambda *args: burge.burge_xn(burge.BurgeParams(*args)), None),
    "closed": (_ps("name:word", "M", "L:rat", "N", "sigma", name=_form_names),
               {"N": 1, "sigma": 0}, lambda *args: burge.closed_form(*args), None),
    "product": (REGISTRY["series.products"].params, {},
                lambda *args: series.product_side(*args), 30),
    "sumside": (REGISTRY["series.products"].params, {}, lambda *args: series.sum_side(*args), 30),
    "string.spinon": (*_STRING, _string_of("string_spinon"), 20),
    "string.fermionic": (*_STRING, _string_of("string_fermionic"), 20),
    "string.lp": (*_STRING, _string_of("string_lp"), 20),
}


# --- sweep execution ----------------------------------------------------------------


def _points_for(fam: Family, ranges: Dict[str, List]) -> Tuple[int, Iterator[Tuple]]:
    """The point count, taken before any point is built, and a lazy walk over
    the point values in parameter order: the named axes crossed first, in
    parameter order, then every unnamed axis by its grid rule, in grid order."""
    if not ranges and fam.sample is not None:
        points = list(fam.sample())
        return len(points), iter(points)
    axes: List[Tuple] = [((n,), ranges[n]) for n in fam.names if n in ranges]
    for key, values in fam.axes:
        names = (key,) if isinstance(key, str) else key
        free = [i for i, n in enumerate(names) if n not in ranges]
        if len(free) == len(names):
            axes.append((names, values))
        else:  # a joint axis named in part: each unnamed column sweeps its own values
            axes.extend(((names[i],), tuple(dict.fromkeys(t[i] for t in values))) for i in free)
    split = len(axes)  # the trailing plain axes (one name, fixed values) cross by product
    while split and len(axes[split - 1][0]) == 1 and not callable(axes[split - 1][1]):
        split -= 1
    head, tail = axes[:split], [values for _, values in axes[split:]]
    order = [n for names, _ in axes for n in names]
    fixed = order[:len(order) - len(tail)]  # the names the head axes set
    # a walk tuple into parameter order; one index alone would give a bare value
    pick = itemgetter(*map(order.index, fam.names)) if len(order) > 1 else itemgetter(slice(None))
    point: Dict[str, object] = {}

    def leaves(depth: int = 0) -> Iterator[None]:
        """Set `point` to each choice of the head axes in turn."""
        if depth == len(head):
            yield None
            return
        names, values = head[depth]
        for v in values(point) if callable(values) else values:
            point.update(zip(names, v) if len(names) > 1 else ((names[0], v),))
            yield from leaves(depth + 1)

    head_choices = sum(1 for _ in islice(leaves(), MAX_SWEEP_POINTS + 1))
    count = math.prod(map(len, tail)) * head_choices
    if count > MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep would exceed {MAX_SWEEP_POINTS} points; narrow the ranges")
    # each head choice crossed with the tail, the head's values read as it is set
    return count, chain.from_iterable(map(pick, product(*([point[n]] for n in fixed), *tail))
                                      for _ in leaves())


_COLORS = {"equal": "\x1b[32m", "mismatch": "\x1b[31m", "error": "\x1b[31m",
           "skipped_precondition": "\x1b[33m"}


def _row_format(fam: Family, opts: Dict) -> Tuple[str, Callable, Callable]:
    """The report row format: a row is before + head % values + after, where the
    values go through encode, which plain ints may skip (not bool, which %s
    writes as True), and (before, after) = ends(verdict, fields, elapsed).  The
    fields that are not None follow the verdict in order; as JSON, elapsed_ms
    is last."""
    if opts["format"] == "json":
        def ends(verdict: str, fields: Dict, elapsed: int) -> Tuple[str, str]:
            rest = "".join([f', "{k}": {_json_value(v)}' for k, v in fields.items() if v is not None])
            return "", f', "verdict": "{verdict}"{rest}, "elapsed_ms": {elapsed}}}\n'

        return fam.heads[0], _json_value, ends

    def ends(verdict: str, fields: Dict, elapsed: int) -> Tuple[str, str]:
        parts = [""]
        if fields.get("truncation") is not None:
            parts.append(f"D={fields['truncation']}")
        if "diff_repr" in fields:
            parts.append(f"diff[{fields['diff_repr']}]")
        elif "lhs_repr" in fields:
            parts.append(f"lhs[{fields['lhs_repr']}] rhs[{fields['rhs_repr']}]")
        if opts["color"] and verdict in _COLORS:
            verdict = f"{_COLORS[verdict]}{verdict}\x1b[0m"
        return verdict + " ", " ".join(parts) + "\n"

    return fam.heads[1], _encode_value, ends


def _summary_line(ident: str, counts: Counter, code: int, elapsed_ms: int, fmt: str) -> str:
    counts = {k: counts[k] for k in _VERDICTS}
    total = sum(counts.values())
    if fmt == "json":
        return json.dumps({"summary": True, "identity_id": ident, "grid_version": GRID_VERSION,
                           "total": total, **counts, "exit_code": code,
                           "elapsed_ms": elapsed_ms}) + "\n"
    tally = " ".join(f"{k}={v}" for k, v in counts.items())
    return f"# {ident}: total={total} {tally} exit={code}\n"


def _eval_chunk(ident: str, chunk: List[Tuple], d, opts: Dict):
    """A chunk's rows as one string, its verdict counts, notes and first mismatch (row index,
    lhs, rhs) or None; d is the degree, or the name of the parameter whose value is each point's."""
    fam = REGISTRY[ident]
    names, point, precondition, sides = fam.names, fam.point, fam.precondition, fam.sides
    exceptional, timing = opts["include_exceptional"] and fam.exceptional_sides, opts["timing"]
    at = names.index(d) if isinstance(d, str) else None
    head, encode, ends = _row_format(fam, opts)
    plain = {verdict: ends(verdict, {}, 0) for verdict in _VERDICTS}  # a row without fields
    ints = set(map(type, chain.from_iterable(chunk))) == {int}  # then no value needs encode
    counts, rows, notes, first = dict.fromkeys(_VERDICTS, 0), [], [], None
    for values in chunk:
        t0 = time.perf_counter() if timing else 0
        deg, fields = d if at is None else values[at], {}
        try:
            p = dict(zip(names, values)) if point is None else point(*values)
            if precondition is not None and not precondition(p):
                verdict = "skipped_precondition"
                if exceptional:
                    lhs, rhs = sides(p, deg)[:2]
                    fields = {"lhs_repr": render(lhs), "rhs_repr": render(rhs)}
            else:
                lhs, rhs, *witness = sides(p, deg)
                t = None if deg is None else Truncation(deg)
                if lhs == rhs if t is None else truncated_equal(lhs, rhs, t):
                    verdict, fields = "equal", {} if t is None else {"truncation": deg}
                else:
                    if t is not None:
                        lhs, rhs = lhs.truncate(t), rhs.truncate(t)
                    first = first or (len(rows), lhs, rhs)
                    verdict, fields = "mismatch", {
                        "lhs_repr": render(lhs), "rhs_repr": render(rhs), "diff_repr": render(lhs - rhs),
                        "truncation": deg, "witness": witness[0] if witness else None}
        except Exception as ex:  # one failing point is an error row, never an aborted sweep
            verdict, fields = "error", {}
            note = f"{type(ex).__name__}: {ex}"
            if not isinstance(ex, QIdentError):
                import traceback  # only an internal fault prints one

                note += "\n" + traceback.format_exc().rstrip()
            notes.append(f"{ident} {dict(zip(names, map(_encode_value, values)))}: {note}")
        counts[verdict] += 1
        elapsed = int((time.perf_counter() - t0) * 1000) if timing else 0
        before, after = ends(verdict, fields, elapsed) if fields or elapsed else plain[verdict]
        filled = head % (values if ints else tuple(map(encode, values)))
        rows.append(f"{before}{filled}{after}")
    return "".join(rows), counts, notes, first


class _Pipeline:
    """The parent side of a sweep: chunks run in the pool (at one job, in-process
    when drained), at most 2 x jobs in flight across families; their strings are
    written in submission order, and a family's summary after its last chunk."""

    def __init__(self, write: Callable[[str], object], opts: Dict, pool, jobs: int):
        self.write, self.opts, self.limit = write, opts, 2 * jobs
        self.submit = partial if pool is None else lambda *task: pool.submit(*task).result
        self.window: deque = deque()  # a result getter per chunk, (ident, t0) per family end
        self.counts, self.total, self.exit_code = Counter(), Counter(), 0

    def drain(self, keep: int) -> None:
        """Write finished work from the front until at most `keep` entries remain;
        a family end that reaches the front writes that family's summary."""
        while len(self.window) > keep or self.window and isinstance(self.window[0], tuple):
            item = self.window.popleft()
            if not isinstance(item, tuple):
                text, counts, notes, _ = item()
                self.write(text)
                self.counts.update(counts)
                for note in notes:
                    print(note, file=sys.stderr)
                continue
            (ident, t0), counts, self.counts = item, self.counts, Counter()
            if counts["equal"] + counts["mismatch"] == 0:
                print(f"{ident}: no point was checked, so nothing was verified", file=sys.stderr)
            # 0 only when nothing failed and the verdict rests on a checked point
            code = 0 if counts["mismatch"] == counts["error"] == 0 < counts["equal"] else 1
            elapsed = int((time.perf_counter() - t0) * 1000) if self.opts["timing"] else 0
            self.write(_summary_line(ident, counts, code, elapsed, self.opts["format"]))
            self.exit_code = max(self.exit_code, code)
            self.total.update(counts)


def _run_family(fam: Family, ranges: Dict[str, List], opts: Dict, pipe: _Pipeline) -> None:
    """Queue one family's chunks, then its end; empty ranges mean its default grid."""
    count, points = _points_for(fam, ranges)
    d = fam.trunc if opts["trunc"] is None else opts["trunc"]
    t0 = time.perf_counter()
    # 64 points at least amortize a chunk's round trip; a big sweep gets 256 chunks
    while chunk := list(islice(points, max(64, count // 256))):
        pipe.drain(pipe.limit - 1)
        pipe.window.append(pipe.submit(_eval_chunk, fam.identity_id, chunk, d, opts))
    pipe.window.append((fam.identity_id, t0))
    pipe.drain(pipe.limit - 1)  # at one job, the summary before the next family is counted


@contextmanager
def _output(path: Optional[str]):
    """(write, isatty) for stdout or the --out file.  A failed open, write, flush or
    close is a ConfigError naming the target, or a BrokenPipeError when the reader
    left; stdout then goes to devnull first, so that exit writes nothing more."""
    def guard(op, *args):
        try:
            return op(*args)
        except OSError as ex:
            if path is None:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(ex, BrokenPipeError):
                raise
            name = "stdout" if path is None else f"--out {path}"
            raise ConfigError(f"{name}: {ex.strerror or ex}") from None

    stream = sys.stdout if path is None else guard(open, path, "w")
    try:
        yield partial(guard, stream.write), hasattr(stream, "isatty") and stream.isatty()
    finally:  # a failed write shows here at the latest, inside main, not at exit
        guard(stream.flush if path is None else stream.close)


def _new_pool(jobs: int):
    from concurrent.futures import ProcessPoolExecutor  # a run at one job never loads it

    return ProcessPoolExecutor(max_workers=jobs)


def _sweep(args, runs: Sequence[Tuple[Family, Dict]], opts: Dict, suite: bool) -> int:
    """Run families into one stream; the exit code is the worst of theirs."""
    t0, pool = time.perf_counter(), None
    if args.jobs > 1:
        # the workers fork from this process: run the families' modules here,
        # once, rather than in every worker (the first attribute read runs one)
        for module in dict.fromkeys(module for fam, _ in runs for module in fam.modules):
            vars(module)
        pool = _new_pool(args.jobs)
    try:
        with _output(args.out) as (write, tty):
            color = args.format == "text" and os.environ.get("NO_COLOR") is None and tty
            opts = {**opts, "format": args.format, "color": color}
            pipe = _Pipeline(write, opts, pool, args.jobs)
            for fam, ranges in runs:
                _run_family(fam, ranges, opts, pipe)
            pipe.drain(0)
            if suite:
                elapsed = int((time.perf_counter() - t0) * 1000) if opts["timing"] else 0
                write(_summary_line("suite", pipe.total, pipe.exit_code, elapsed, args.format))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # leaving early drops the queued chunks
    return pipe.exit_code


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
        name, eq, text = tok[2:].partition("=")
        if not eq:
            if i + 1 >= len(extras):
                raise ConfigError(f"--{name}: missing value")
            i += 1
            text = extras[i]
        i += 1
        ps = by_name.get(name)
        if ps is None:
            raise ConfigError(f"unknown parameter --{name}")
        if name in out:  # several values go in one comma list
            raise ConfigError(f"--{name} given twice")
        vals = _parse_values(text, ps)
        if not multi and len(vals) != 1:
            raise ConfigError(f"--{name}: expected a single value")
        out[name] = vals
    return out


def _lookup(table: Dict, name: str):
    if name not in table:
        raise ConfigError(f"unknown identity {name!r}; known: {', '.join(table)}")
    return table[name]


def cmd_verify(args, extras) -> int:
    fam = _lookup(REGISTRY, args.identity)
    if args.trunc is not None and not isinstance(fam.trunc, int):
        raise ConfigError(f"--trunc does not apply to {fam.identity_id}, which has no degree D")
    ranges = _parse_overrides(fam.params, extras, multi=True)
    opts = {"trunc": args.trunc, "include_exceptional": args.include_exceptional,
            "timing": args.timing}
    return _sweep(args, [(fam, ranges)], opts, suite=False)


def cmd_suite(args) -> int:
    opts = {"trunc": None, "include_exceptional": True, "timing": args.timing}
    return _sweep(args, [(fam, {}) for fam in REGISTRY.values()], opts, suite=True)


def cmd_tree(args) -> int:
    try:
        nodes = burge.build_tree(args.depth, args.N, args.sigma)
        verdicts = tree_verdicts(nodes, args.grid)
    except InvalidParams as ex:
        raise ConfigError(str(ex))
    for index, (nd, (_, first, notes)) in enumerate(zip(nodes, verdicts)):
        sys.stderr.writelines(f"{note}\n" for note in notes)
        if first is not None:  # the node's witness: the family, the point and both sides
            ident, values, lhs, rhs = first
            print(f"node {index} {nd.labels} {ident} M={values[-2]} L={_encode_value(values[-1])}"
                  f" lhs[{render(lhs)}] rhs[{render(rhs)}]", file=sys.stderr)
    doc = {"grid_version": GRID_VERSION, "depth": args.depth, "N": args.N, "sigma": args.sigma,
           "verify_grid": args.grid, "all_verified": all(v is not False for v, _, _ in verdicts),
           "nodes": [{"labels": list(nd.labels), **{k: getattr(nd, k) for k in (
               "N", "sigma", "depth", "parent_index", "transform_tag", "closed_form_name")},
               "verified": v} for nd, (v, _, _) in zip(nodes, verdicts)]}
    with _output(args.out) as (write, _):
        if args.format == "json":
            write(json.dumps(doc, indent=1) + "\n")
        else:
            for nd, (v, _, _) in zip(nodes, verdicts):
                write(f"depth={nd.depth} ({nd.p},{nd.pprime},{nd.r},{nd.s})"
                             f" N={nd.N} sigma={nd.sigma} via={nd.transform_tag or 'seed'}"
                             f" form={nd.closed_form_name or '-'} verified={v}\n")
    return 0 if doc["all_verified"] else 1


def cmd_eval(args, extras) -> int:
    spec_params, defaults, fn, default_trunc = _lookup(EVAL_REGISTRY, args.identity)
    if args.trunc is not None and default_trunc is None:
        raise ConfigError(f"--trunc does not apply to {args.identity}, which has no degree D")
    given = _parse_overrides(spec_params, extras, multi=False)
    params: Dict[str, object] = {}  # in parameter order
    for ps in spec_params:
        if ps.name not in given and ps.name not in defaults:
            raise ConfigError(f"missing required parameter --{ps.name}")
        params[ps.name] = given[ps.name][0] if ps.name in given else defaults[ps.name]
    d = args.trunc if args.trunc is not None else default_trunc
    try:
        value = fn(*params.values(), *(() if default_trunc is None else (Truncation(d),)))
    except QIdentError as ex:
        raise ConfigError(f"{type(ex).__name__}: {ex}")
    except ValueError as ex:
        raise ConfigError(str(ex))
    with _output(args.out) as (write, _):
        write(render(value) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qident", description="verify q-series identity families on parameter sweeps")
    sub = top.add_subparsers(dest="cmd", required=True)
    # parameters share the options' namespace: --f is sears's f, never --format
    pv = sub.add_parser("verify", help="sweep one identity family", allow_abbrev=False)
    pt = sub.add_parser("tree", help="expand and verify a transform tree")
    pe = sub.add_parser("eval", help="evaluate one object to canonical text")
    ps_ = sub.add_parser("suite", help="run every family on its default grid")
    for p in (pv, pe):
        p.add_argument("identity")
        p.add_argument("--trunc", type=int, default=None, metavar="D",
                       help="truncation degree for series families")
    pv.add_argument("--include-exceptional", action="store_true",
                    help="record both sides on skipped exceptional points")
    for p in (pv, ps_):
        p.add_argument("--jobs", type=int, default=1, metavar="W",
                       help="evaluate points with W worker processes")
        p.add_argument("--timing", action="store_true",
                       help="record real elapsed_ms (breaks byte determinism)")
    for p in (pv, pt, pe, ps_):
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the output to PATH instead of stdout")
    for p in (pv, pt, ps_):
        p.add_argument("--format", choices=("json", "text"), default="json")
    pt.add_argument("--depth", type=int, default=2)
    pt.add_argument("--N", type=int, default=1)
    pt.add_argument("--sigma", type=int, default=0)
    pt.add_argument("--grid", type=int, default=2, help="verification grid bound per node")
    return top


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args, extras = _build_parser().parse_known_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 2
    try:
        for flag, least, most in (("trunc", 0, MAX_DEGREE), ("jobs", 1, MAX_JOBS), ("grid", 0, None)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise ConfigError(f"--{flag} must be >= {least}, got {value}")
            if value is not None and most is not None and value > most:  # the grid cap is the tree's
                raise ConfigError(f"--{flag} must be <= {most}, got {value}")
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
    except BrokenPipeError:  # the reader left; _output sent stdout to devnull, the signal docs' recipe
        return 1


if __name__ == "__main__":
    sys.exit(main())
