"""Span tracer that wraps the public functions of the qident layers.

The tracer rebinds every public function of each layer module, in every
``qident`` namespace that bound it (``from .qpoly import mul`` gives
``qbinom``, ``saalschutz``, ``burge``, ``multinom``, ``series`` and ``cli``
their own binding of ``mul``), and the public methods of the classes those
modules define, such as ``CartanData.qform`` and ``QPoly.truncate``.
``uninstall`` puts every original object back.

Hot leaf calls are aggregated per name as ``[calls, total_s, self_s]``, so
millions of ``mul`` calls cost no memory.  Spans at the per-point level and
above (``cli.main``, one span per family, one per point) are also kept one
by one as ``(id, parent_id, name, label, start, end, self_s)``.

Self time is a span's duration minus the part covered by its child spans.
In a single thread children never overlap, so the covered part is the sum
of the children's durations; each child also charges its own bookkeeping to
that sum, so the tracer's cost does not land in its parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from fractions import Fraction
from math import comb

LAYERS = ("qpoly", "qbinom", "lattice", "saalschutz", "burge", "multinom", "series", "cli")

# private functions that are spans at the per-point level, kept one by one
KEPT_SPANS = {
    "cli.main": "cli.main",
    "cli.cmd_verify": "cli.cmd_verify",
    "cli.cmd_suite": "cli.cmd_suite",
    "cli._run_family": "cli.family",
    "cli._eval_point": "cli.point",
}


def qident_modules() -> dict:
    """The ``qident`` package and its layer modules, by short name."""
    modules = {"qident": importlib.import_module("qident")}
    for short in LAYERS:
        try:
            modules[short] = importlib.import_module(f"qident.{short}")
        except ModuleNotFoundError:  # a layer merged away leaves its metrics at 0
            pass
    return modules


def enum_scanned(rank: int, v_sum: int) -> int:
    """Candidates the nonnegative budget scan visits: C(floor(sum v/2)+rank, rank)."""
    if v_sum < 0:
        return 0
    return comb(v_sum // 2 + rank, rank)


def self_times(spans):
    """Self time of each span in a list of ``(id, parent_id, start, end)``.

    Reference for the tracer's running arithmetic: duration minus the total
    duration of the direct children.
    """
    covered = {}
    for sid, parent, start, end in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - covered.get(sid, 0.0) for sid, _, start, end in spans}


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.agg = {}  # name -> [calls, total_s, self_s]
        self.counters = {
            "qpoly.mul.term_pairs": 0,
            "qpoly.mul.frac_calls": 0,
            "qpoly.mul.trunc_calls": 0,
            "lattice.enum.kept": 0,
            "lattice.enum.scanned": 0,
        }
        self.spans = []
        self._stack = [[0.0]]  # child-covered time of each open span
        self._ids = [None]  # ids of the open kept spans
        self._restore = []  # (owner, attribute, original)
        self._enum_misses = 0
        self._enum_cache = None  # the lru_cache behind enumerate_admissible, if any
        self._items = None  # the unwrapped QPoly.items, for the multiply counters

    # -- installing ---------------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap the layer functions; ``modules`` maps short name -> module.

        Every module in ``modules`` is searched for bindings of the wrapped
        objects; only the layer modules contribute functions of their own.
        """
        qpoly, lattice = modules.get("qpoly"), modules.get("lattice")
        if qpoly is not None and hasattr(qpoly, "QPoly"):
            self._items = qpoly.QPoly.items
        if lattice is not None:
            self._enum_cache = getattr(lattice, "_enumerate_cached", None)
            if self._enum_cache is not None:
                self._enum_misses = self._enum_cache.cache_info().misses
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            if short not in LAYERS:
                continue
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if name in KEPT_SPANS or _is_public_function(obj, mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(KEPT_SPANS.get(name, name), obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and _is_public_function(fn, mod.__name__):
                            self._restore.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(f"{name}.{meth}", fn))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:  # the originals are alive, so ids are unique
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- wrappers -----------------------------------------------------------------

    def _wrap(self, name, fn):
        rec = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack, ids, spans, clock = self._stack, self._ids, self.spans, self._clock
        keep = name in KEPT_SPANS.values()
        label_of = (lambda args: args[0].identity_id) if name == "cli.family" else (lambda args: None)
        count = {"qpoly.mul": self._count_mul,
                 "lattice.enumerate_admissible": self._count_enum}.get(name)

        def wrapper(*args, **kwargs):
            if keep:
                sid = len(spans)
                spans.append(None)
                parent = ids[-1]
                ids.append(sid)
            t0 = clock()
            frame = [0.0]
            stack.append(frame)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if keep:
                    ids.pop()
                    spans[sid] = (sid, parent, name, label_of(args), t0, t1, dur - frame[0])
                if count is not None:
                    count(args, kwargs, out)
                stack[-1][0] += clock() - t0
        return functools.wraps(fn)(wrapper)

    def _count_mul(self, args, kwargs, out) -> None:
        a, b, c, items = args[0], args[1], self.counters, self._items
        c["qpoly.mul.term_pairs"] += len(a) * len(b)
        if (args[2] if len(args) > 2 else kwargs.get("trunc")) is not None:
            c["qpoly.mul.trunc_calls"] += 1
        if items is not None and (any(type(e) is Fraction for e, _ in items(a))
                                  or any(type(e) is Fraction for e, _ in items(b))):
            c["qpoly.mul.frac_calls"] += 1

    def _count_enum(self, args, kwargs, out) -> None:
        # only a cache miss scans; without the cache every call does
        cache = self._enum_cache
        misses = cache.cache_info().misses if cache is not None else self._enum_misses + 1
        if out is not None and misses > self._enum_misses:
            cd, v = args[0], args[1]
            self.counters["lattice.enum.kept"] += len(out)
            self.counters["lattice.enum.scanned"] += enum_scanned(cd.rank, sum(v))
        self._enum_misses = misses

    # -- results ------------------------------------------------------------------

    def module_self_s(self):
        out = {}
        for name, (_, _, self_s) in self.agg.items():
            mod = name.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + self_s
        return out


def _is_public_function(obj, module_name) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    name = getattr(obj, "__name__", "_")
    if name.startswith("_"):
        return False
    if isinstance(obj, types.FunctionType):
        return not inspect.isgeneratorfunction(obj)
    # functools.lru_cache wrappers around public functions
    return callable(obj) and hasattr(obj, "cache_info") and isinstance(
        getattr(obj, "__wrapped__", None), types.FunctionType)
