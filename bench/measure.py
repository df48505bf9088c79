"""Launch qident processes and account for each one on its own.

Each launch is timed from ``Popen`` to the exit reaped by ``os.wait4`` on
that pid, which also gives the CPU time and peak RSS of that process and the
workers it waited for.  The long-lived benchmark process must not read its
cumulative ``RUSAGE_CHILDREN`` instead: its ``ru_maxrss`` is a running
maximum over all launches, so a later launch could never show lower memory.
The benchmark blocks on the pipe while it hashes the stream, so it does not
compete with the workers for the cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

QIDENT_MAIN = "import sys; from qident.cli import main; sys.exit(main())"
_CHUNK = 1 << 20
_TAIL = 4096


def qident_argv(args: Sequence[str]) -> List[str]:
    """The command line of the ``qident`` console script, run from source."""
    return [sys.executable, "-c", QIDENT_MAIN, *args]


def qident_env(src: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


@dataclass
class Stream:
    """sha256, size and last line of a report stream, fed as it arrives."""

    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    lines: int = 0
    bytes: int = 0
    tail: bytes = b""

    def feed(self, chunk: bytes) -> None:
        self.digest.update(chunk)
        self.lines += chunk.count(b"\n")
        self.bytes += len(chunk)
        self.tail = (self.tail + chunk[-_TAIL:])[-_TAIL:]

    def write(self, text: str) -> int:
        """File-like entry point, so a stream can stand in for ``sys.stdout``."""
        self.feed(text.encode())
        return len(text)

    def flush(self) -> None:
        pass

    @property
    def sha256(self) -> str:
        return self.digest.hexdigest()

    def summary(self) -> Optional[dict]:
        """The last line parsed as the run's summary object, if it is one."""
        lines = self.tail.rstrip(b"\n").rsplit(b"\n", 1)
        try:
            obj = json.loads(lines[-1])
        except ValueError:
            return None
        if isinstance(obj, dict) and obj.get("summary") is True and isinstance(obj.get("total"), int):
            return obj
        return None


@dataclass
class Launch:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    first_row_s: Optional[float]


def launch(args: Sequence[str], src: str, cwd: str, stream: Stream) -> Launch:
    """Run one qident command to completion, feeding its standard output to ``stream``.

    Several launches can feed one stream, which then hashes their outputs
    concatenated in launch order.
    """
    first = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(qident_argv(args), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, cwd=cwd, env=qident_env(src), bufsize=0)
    try:
        fd = proc.stdout.fileno()
        while True:
            chunk = os.read(fd, _CHUNK)
            if not chunk:
                break
            if first is None and b"\n" in chunk:
                first = time.perf_counter() - t0
            stream.feed(chunk)
    finally:
        proc.stdout.close()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                  proc.returncode, first)


def quartiles(values: Sequence[float]):
    """(q1, median, q3); with one value all three are that value."""
    med = statistics.median(values)
    if len(values) == 1:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3
