"""qident benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 bench/run.py --workload suite|sweep-wide|series-deep|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run it from a checkout: it runs ``qident`` from ``src/`` there and writes
only under ``bench/out/``.

``--trace 0`` (the default) measures end to end.  It first launches the
one-point set-up command several times (``setup_s`` is the median time from
launch to its first report row), then launches the workload closed-loop,
one run after another, until ``--seconds`` have passed.  Every run is a
fresh process with cold caches, as a user gets on every invocation.

``--trace 1`` measures layer by layer.  It runs the workload in-process
three times, each in a fresh process: untraced at ``--jobs 1``, traced at
``--jobs 1`` (the difference is ``trace.overhead_s``), and untraced at
``--jobs 2`` for the pool split.  Then it times the pinned multiply shapes.

Every output stream is checked: against its pinned sha256 and line count
for the default seed (the suite always), and against the expected point
total and exit code 0 for every seed; the traced and ``--jobs 2`` streams
must hash the same as the untraced one.  A launch that fails these checks
counts all its points as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes a record (machine, nproc, Python, git SHA, seed, ``src/`` line count,
every sample) to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import kernels
import workloads
from measure import Stream, launch, qident_env, quartiles
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_LAUNCHES = 7

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# functions whose calls and self time are per-layer metrics
SPAN_METRICS = (
    "qpoly.mul", "qpoly.invert_truncated", "qpoly.exact_div", "qpoly.truncate",
    "qbinom.qbin", "qbinom.qbin_standard", "qbinom.qbin_modified", "qbinom.qbin_mod_tb",
    "qbinom.qbin_vector",
    "lattice.enumerate_admissible", "lattice.qform",
    "saalschutz.gensum_lhs", "saalschutz.gensum_rhs", "saalschutz.qs2_lhs", "saalschutz.qs2_rhs",
    "burge.burge_x", "burge.burge_xn", "burge.build_tree",
    "multinom.t_multinomial", "multinom.tnew_rhs", "multinom.difference_sides",
    "multinom.abf_config_sum",
    "series.limlm_sides", "series.conjugate_pair_failure", "series.string_spinon",
    "series.string_fermionic", "series.string_lp",
)
# metric name -> traced span name, for the methods
SPAN_ALIASES = {"qpoly.truncate": "qpoly.QPoly.truncate", "lattice.qform": "lattice.CartanData.qform"}


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for mod in LAYERS:
        units[f"{mod}.self_s"] = "s"
    for name in ("qpoly.mul.term_pairs", "qpoly.mul.frac_calls", "qpoly.mul.trunc_calls",
                 "lattice.enum.kept", "lattice.enum.scanned",
                 "qbinom.cache.hits", "qbinom.cache.misses", "qbinom.cache.size",
                 "lattice.enum.cache.hits", "lattice.enum.cache.misses", "lattice.enum.cache.size",
                 "cli.rows"):
        units[name] = "count"
    units.update({
        "lattice.enum.kept_ratio": "ratio",
        "cli.bytes_out": "bytes",
        "cli.point.p50_ms": "ms",
        "cli.point.p99_ms": "ms",
        "cli.pool.parent_cpu_s": "s",
        "cli.pool.worker_cpu_s": "s",
        "cli.pool.idle_frac": "ratio",
        "qpoly.kernel.dense_26x26_d25_us": "us",
        "qpoly.kernel.binom_226x193_us": "us",
        "qpoly.kernel.thirds_26x21_us": "us",
        "trace.overhead_s": "s",
    })
    return units


# -- checks ----------------------------------------------------------------------


def stream_failures(wl, sha256, lines, exit_codes, summaries) -> list:
    """Reasons the output of one workload run is wrong; empty when it is right."""
    bad = []
    if any(code != 0 for code in exit_codes):
        bad.append(f"exit codes {exit_codes}")
    if any(s is None for s in summaries):
        bad.append("a command printed no summary line")
    else:
        total = sum(s["total"] for s in summaries)
        if total != wl.points:
            bad.append(f"{total} points verified, expected {wl.points}")
        if lines != total + len(summaries) and wl.name != "suite":
            bad.append(f"{lines} lines for {total} points")
    if wl.pin is not None and (sha256, lines) != (wl.pin.sha256, wl.pin.lines):
        bad.append(f"stream sha256 {sha256} ({lines} lines) is not the pinned "
                   f"{wl.pin.sha256} ({wl.pin.lines} lines)")
    return bad


# -- end to end --------------------------------------------------------------------


def run_workload(wl) -> dict:
    """Launch every command of the workload back to back; one sample."""
    stream = Stream()
    exit_codes, summaries, cpu, rss = [], [], 0.0, 0.0
    t0 = time.perf_counter()
    for cmd in wl.commands:
        res = launch(cmd, str(SRC), str(ROOT), stream)
        exit_codes.append(res.exit_code)
        summaries.append(stream.summary())
        cpu += res.cpu_s
        rss = max(rss, res.peak_rss_mb)
    wall = time.perf_counter() - t0
    bad = stream_failures(wl, stream.sha256, stream.lines, exit_codes, summaries)
    points = sum(s["total"] for s in summaries if s is not None)
    failed = wl.points if bad else 0
    return {"wall_s": wall, "points_per_s": points / wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "points": points, "failed": failed, "problems": bad, "sha256": stream.sha256}


def setup_samples() -> tuple:
    """Launch-to-first-row times of the set-up command, after one warm-up."""
    times, failed = [], 0
    for i in range(SETUP_LAUNCHES + 1):
        stream = Stream()
        res = launch(workloads.SETUP_COMMAND, str(SRC), str(ROOT), stream)
        summary = stream.summary()
        if res.exit_code != 0 or res.first_row_s is None or not summary or summary["total"] != 1:
            failed += 1
        elif i:
            times.append(res.first_row_s)
    return times, failed


def end_to_end(wl, seconds: float) -> dict:
    setup, setup_failed = setup_samples()
    # closed loop: the next run starts when the last one exits, as long as a
    # run as long as the last one still ends inside the window
    runs = []
    t0 = time.perf_counter()
    while not runs or time.perf_counter() - t0 + runs[-1]["wall_s"] <= seconds:
        runs.append(run_workload(wl))
    samples = {name: [r[name] for r in runs] for name in END_TO_END if name != "setup_s"}
    samples["setup_s"] = setup
    attempted = wl.points * len(runs) + SETUP_LAUNCHES + 1
    failed = sum(r["failed"] for r in runs) + setup_failed
    return {
        "samples": samples,
        "runs": runs,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and bool(setup),
        "metrics": {name: {"value": quartiles(samples[name])[1], "unit": unit}
                    for name, unit in END_TO_END.items() if samples[name]},
    }


def print_end_to_end(wl, res) -> None:
    n = len(res["runs"])
    print(f"{wl.name} (seed {wl.seed}): {n} closed-loop run(s) of {wl.points} points, "
          f"{len(res['samples']['setup_s'])} set-up launches")
    for name, unit in END_TO_END.items():
        values = res["samples"][name]
        if not values:
            print(f"  {name:<12} no samples")
            continue
        q1, med, q3 = quartiles(values)
        print(f"  {name:<12} {med:12.4f} {unit:<4} q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<12} {frac:12.4f} 1    ({res['failed']} of {res['attempted']} points)")
    for r in res["runs"]:
        for problem in r["problems"]:
            print(f"  FAILED: {problem}")


# -- per layer ----------------------------------------------------------------------


def inproc(wl, jobs: int, mode: str, spans=None) -> dict:
    cmd = [sys.executable, str(BENCH / "inproc.py"), "--workload", wl.name,
           "--seed", str(wl.seed), "--jobs", str(jobs), "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=str(ROOT), env=qident_env(str(SRC)), stdout=subprocess.PIPE,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"in-process {mode} run of {wl.name} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def per_layer(wl, spans_path) -> dict:
    plain = inproc(wl, 1, "plain")
    traced = inproc(wl, 1, "trace", spans_path)
    pool = inproc(wl, 2, "plain")
    sys.path.insert(0, str(SRC))
    kernel_us = kernels.shapes()

    problems, failed = [], 0
    for label, r in (("untraced", plain), ("traced", traced), ("--jobs 2", pool)):
        bad = stream_failures(wl, r["sha256"], r["lines"], r["exit_codes"], r["summaries"])
        if r["sha256"] != plain["sha256"]:
            bad.append("stream differs from the untraced run")
        problems += [f"{label}: {p}" for p in bad]
        failed += wl.points if bad else 0

    agg, counters = traced["agg"], traced["counters"]
    values = {}
    for name in SPAN_METRICS:
        calls, _, self_s = agg.get(SPAN_ALIASES.get(name, name), (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for mod in LAYERS:
        values[f"{mod}.self_s"] = traced["module_self_s"].get(mod, 0.0)
    values.update(counters)
    values["lattice.enum.kept_ratio"] = (counters["lattice.enum.kept"] / counters["lattice.enum.scanned"]
                                         if counters["lattice.enum.scanned"] else 0.0)
    for cache, (hits, misses, size) in traced["caches"].items():
        values.update({f"{cache}.hits": hits, f"{cache}.misses": misses, f"{cache}.size": size})
    values["cli.rows"] = traced["lines"]
    values["cli.bytes_out"] = traced["bytes"]
    values["cli.point.p50_ms"] = traced["point_s"]["p50"] * 1e3
    values["cli.point.p99_ms"] = traced["point_s"]["p99"] * 1e3
    values["cli.pool.parent_cpu_s"] = pool["parent_cpu_s"]
    values["cli.pool.worker_cpu_s"] = pool["worker_cpu_s"]
    values["cli.pool.idle_frac"] = max(0.0, 1.0 - pool["worker_cpu_s"] / (2 * pool["wall_s"]))
    values.update(kernel_us)
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = per_layer_units()
    return {
        "runs": {"untraced": plain["wall_s"], "traced": traced["wall_s"], "jobs2": pool["wall_s"]},
        "all_spans": traced["agg"],
        "problems": problems,
        "attempted": wl.points * 3,
        "failed": failed,
        "correct": not problems,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def print_per_layer(wl, res) -> None:
    runs = res["runs"]
    print(f"{wl.name} (seed {wl.seed}): in-process untraced {runs['untraced']:.3f} s, "
          f"traced {runs['traced']:.3f} s, --jobs 2 {runs['jobs2']:.3f} s")
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")


# -- run record ------------------------------------------------------------------


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    except OSError:  # no git on this machine
        return "unknown"
    return proc.stdout.decode().strip() or "unknown"


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_record(args) -> dict:
    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "system": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines(),
        "utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="qident benchmark")
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "qident" / "cli.py").is_file():
        print(f"error: no qident sources under {SRC}; run from a qident checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    record = run_record(args)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        wl = workloads.build(name, args.seed)
        stamp = f"{name}-seed{args.seed}-trace{args.trace}-{record['utc']}"
        if args.trace:
            res = per_layer(wl, OUT / f"spans-{stamp}.jsonl")
            print_per_layer(wl, res)
        else:
            res = end_to_end(wl, args.seconds)
            print_end_to_end(wl, res)
        (OUT / f"run-{stamp}.json").write_text(json.dumps(
            {**record, "workload": name, "commands": wl.commands, **res}, indent=1) + "\n")
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        total["metrics"].update({prefix + k: v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
