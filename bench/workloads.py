"""The benchmark's three workloads: the qident command lines each seed gives.

Every workload is a list of ``qident`` argument vectors that run back to back,
each in a fresh process.  ``DEFAULT_SEED`` gives the canonical inputs whose
output streams are pinned in ``PINS``; other seeds draw other inputs of the
same size and cost, and are checked by their point totals and exit codes.

suite
    ``qident suite --jobs 1`` on the program's own versioned default grids.
    It takes no seed.  The headline run, with every layer in its production
    mix: Fraction-keyed ``qpoly.mul`` dominates (gensum, strings, cbp) and the
    lattice enumeration does real work (gensum).  A ``GRID_VERSION`` bump
    changes this workload and needs a benchmark change of its own.
sweep-wide
    One ``verify qs2 --include-exceptional --jobs 2`` over a 4-axis integer
    box of 21 values per axis, 194,481 points.  Many small points with integer
    exponents only: CLI rows and JSON, the process pool's traffic, ``qbinom``
    and the exact untruncated multiply do the work; lattice, series,
    truncation and Fraction keys do none.
series-deep
    Truncated-series families above the default ranks (N up to 6, D = 20):
    a few heavy points where the eta-shell scan, the capped multiply and
    ``invert_truncated`` dominate and the CLI is close to zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

DEFAULT_SEED = 0
NAMES = ("suite", "sweep-wide", "series-deep")


@dataclass(frozen=True)
class Pin:
    sha256: str
    lines: int
    points: int


# output streams of the default seed, at grid version 1; the suite's is the
# one ROADMAP.md records
PINS = {
    "suite": Pin("d62c9d54b6e61f3c125c2e48fb2012a6c0db18bdb33cc8235e5102ad97ecf9ef", 43654, 43634),
    "sweep-wide": Pin("7e9f63c950fc9e425c3fb5b6f01b6d0643256f7e4e7fcf71cdc817cf91841491", 194482, 194481),
    "series-deep": Pin("3e7b3feb245a15746260018ad65e63d0f598a9e8563084649bcf0dbbf179b024", 65, 62),
}


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: Tuple[Tuple[str, ...], ...]
    points: int  # points the commands verify, from their axis sizes
    pin: Optional[Pin]  # set when the stream is known byte for byte

    def with_jobs(self, jobs: int) -> Tuple[Tuple[str, ...], ...]:
        """The same commands with every ``--jobs`` value replaced."""
        out = []
        for cmd in self.commands:
            cmd = list(cmd)
            cmd[cmd.index("--jobs") + 1] = str(jobs)
            out.append(tuple(cmd))
        return tuple(out)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _sweep_axes(seed: int):
    # Each axis keeps 21 of the 22 values -11..10.  The dropped value comes
    # from the cheap end of the axis (the cost of a qs2 point grows steeply
    # with its positive coordinates), so every seed costs within about 3% of
    # the default box -10..10 while still moving points in and out.
    cheap = {"L1": range(-11, -4), "L2": range(-11, -4), "M": range(-11, -4),
             "ell": (-11, -10, -9, -8, 8, 9, 10)}
    rng = random.Random(f"sweep-wide/{seed}")
    axes = {}
    for axis, pool in cheap.items():
        drop = -11 if seed == DEFAULT_SEED else rng.choice(tuple(pool))
        axes[axis] = [v for v in range(-11, 11) if v != drop]
    return axes


def build(name: str, seed: int) -> Workload:
    if name == "suite":
        cmds = (("suite", "--jobs", "1"),)
        return Workload(name, seed, cmds, PINS[name].points, PINS[name])
    if name == "sweep-wide":
        axes = _sweep_axes(seed)
        cmd = ["verify", "qs2", "--include-exceptional", "--jobs", "2"]
        points = 1
        for axis, values in axes.items():
            cmd += [f"--{axis}", _csv(values)]
            points *= len(values)
        return Workload(name, seed, (tuple(cmd),), points,
                        PINS[name] if seed == DEFAULT_SEED else None)
    if name == "series-deep":
        # The seed picks limlm's sigma.  It is the one choice here that keeps
        # the cost steady: limlm at N=6 is 60% of the run, and any subset of
        # its ell values would move the run time by 10-30%.
        sigma = 0 if seed == DEFAULT_SEED else random.Random(f"series-deep/{seed}").choice((0, 1))
        cmds = (
            ("verify", "series.limlm", "--N", "4..6", "--ell", "0..4",
             "--sigma", str(sigma), "--trunc", "20", "--jobs", "1"),
            ("verify", "series.strings", "--N", "4", "--m", "0..6", "--ell", "0..4",
             "--trunc", "20", "--jobs", "1"),
            ("verify", "series.cbp", "--N", "4", "--ell", "0..2", "--sigma", "0,1",
             "--M", "5,inf", "--trunc", "20", "--jobs", "1"),
        )
        return Workload(name, seed, cmds, 3 * 5 + 7 * 5 + 3 * 2 * 2,
                        PINS[name] if seed == DEFAULT_SEED else None)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


# A one-point sweep of the cheapest family: set-up time is launch to its
# first report row, which covers interpreter start, package import and
# registry build.
SETUP_COMMAND = ("verify", "qpoly.partitions", "--limit", "0")
