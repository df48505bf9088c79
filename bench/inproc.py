"""Run one workload inside this process, for the per-layer measurements.

    python3 bench/inproc.py --workload NAME --seed N --jobs J --mode plain|trace [--spans PATH]

``qident.cli.main`` is called once per command of the workload, with
``sys.stdout`` replaced by a hashing stream.  ``--mode trace`` wraps the
layer functions first (see ``tracer.py``); ``--mode plain`` runs untraced
and also reports this process's CPU time and that of the pool workers it
reaped, from ``getrusage``.  The result is one JSON object on standard
output.  Run it in a fresh process, so every ``lru_cache`` starts cold.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import workloads
from measure import Stream
from tracer import Tracer, qident_modules


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


# the lru_caches behind the standard binomials and the lattice enumeration
CACHES = {
    "qbinom.cache": ("qbinom", "_qbin_symmetric"),
    "lattice.enum.cache": ("lattice", "_enumerate_cached"),
}


def _cache_info(modules, mod, attr):
    """[hits, misses, size] of one cache; zeros when the program has no such cache."""
    cached = getattr(modules.get(mod), attr, None)
    if cached is None or not hasattr(cached, "cache_info"):
        print(f"note: no cache {mod}.{attr}; its metrics read 0", file=sys.stderr)
        return [0, 0, 0]
    info = cached.cache_info()
    return [info.hits, info.misses, info.currsize]


def _percentile(sorted_values, share):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(share * len(sorted_values)))]


def run(name: str, seed: int, jobs: int, trace: bool, spans_path=None) -> dict:
    wl = workloads.build(name, seed)
    modules = qident_modules()
    cli = modules["cli"]
    tracer = Tracer() if trace else None
    stream = Stream()
    exit_codes, summaries = [], []
    real_stdout = sys.stdout
    if tracer is not None:
        tracer.install(modules)
    sys.stdout = stream
    t0 = time.perf_counter()
    try:
        for cmd in wl.with_jobs(jobs):
            exit_codes.append(cli.main(list(cmd)))
            summaries.append(stream.summary())
    finally:
        wall = time.perf_counter() - t0
        sys.stdout = real_stdout
        if tracer is not None:
            tracer.uninstall()
    out = {
        "wall_s": wall,
        "sha256": stream.sha256,
        "lines": stream.lines,
        "bytes": stream.bytes,
        "exit_codes": exit_codes,
        "summaries": summaries,
        "parent_cpu_s": _cpu(resource.getrusage(resource.RUSAGE_SELF)),
        "worker_cpu_s": _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)),
    }
    if tracer is not None:
        points = sorted(s[5] - s[4] for s in tracer.spans if s[2] == "cli.point")
        out.update({
            "agg": tracer.agg,
            "counters": tracer.counters,
            "module_self_s": tracer.module_self_s(),
            "caches": {name: _cache_info(modules, mod, attr) for name, (mod, attr) in CACHES.items()},
            "point_s": {"p50": _percentile(points, 0.5), "p99": _percentile(points, 0.99),
                        "n": len(points)},
        })
        if spans_path:
            with open(spans_path, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--mode", choices=("plain", "trace"), default="plain")
    ap.add_argument("--spans", default=None, help="write the kept spans here, one JSON list a line")
    args = ap.parse_args()
    result = run(args.workload, args.seed, args.jobs, args.mode == "trace", args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
