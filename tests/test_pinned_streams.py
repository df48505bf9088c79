"""The report streams that the default grids and the benchmark's override
sweeps produce, three verify streams at rank 4, three level-N Burge verify
streams, and the documents of three transform trees, pinned byte for byte.

Each pin belongs to one GRID_VERSION: a deliberate grid change bumps the
version and records its new streams here, and any other change must leave
these bytes alone.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qident.cli import GRID_VERSION, main

# grid version -> stream -> (sha256, line count)
PINNED = {
    "1": {
        "suite": ("d62c9d54b6e61f3c125c2e48fb2012a6c0db18bdb33cc8235e5102ad97ecf9ef", 43654),
        "sweep-wide": ("7e9f63c950fc9e425c3fb5b6f01b6d0643256f7e4e7fcf71cdc817cf91841491", 194482),
        "series-deep": ("3e7b3feb245a15746260018ad65e63d0f598a9e8563084649bcf0dbbf179b024", 65),
        "tree --depth 4": (
            "05b83c9b61d3fc6a71558bfc3403ee57b5920386f70ab0783cfd83484d839755", 475),
        "tree --depth 3 --N 2 --sigma 1": (
            "65d926d59b50e1203abbd1d3457044743a2a65120a213251bbb789c70683510f", 325),
        "tree --depth 3 --N 3": (
            "772374f552c348ab54ad3d2e7a5325e7c702c199f42e7a03139d9df9573c1cf1", 325),
        "verify gensum --N 5": (
            "900b9e74558ee301339ce05ced2eefd8a4f50aef9eb50d1fa19f54897db0a2e0", 2269),
        "verify multinom.tnew --N 5": (
            "3f3924df1439e51193019d8b116674ddc79114361e00204f252f4ce97104b06f", 190),
        "verify multinom.diff --N 5": (
            "498fc91f5ce9af39cd86d52927f4a22b9958ea6e58d23d439842e27099883dfb", 188),
        "verify burge.traf1 --N 4": (
            "ab5566e9fc641337ec886b34aee723374549e8ee7af3764ffe0515135ba5e2da", 145),
        "verify burge.traf2 --N 4": (
            "c7614ba3c5959f2141d361d3389d5158765981db1575d0f5882d641839eb5722", 145),
        "verify burge.forms --N 5": (
            "d6aad84e89b31419ae632cbd05714adb7095bffc8ac1eff2b5e3da1e2e337149", 586),
    },
}


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _stream(commands, tmp_path) -> bytes:
    out = b""
    for i, cmd in enumerate(commands):
        path = tmp_path / f"part{i}.jsonl"
        assert main(list(cmd) + ["--out", str(path)]) == 0
        out += path.read_bytes()
    return out


def _assert_pinned(name: str, data: bytes) -> None:
    assert GRID_VERSION in PINNED, "a GRID_VERSION bump must pin its streams here"
    sha, lines = PINNED[GRID_VERSION][name]
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == sha


def test_suite_stream_is_pinned(tmp_path):
    _assert_pinned("suite", _stream([("suite", "--jobs", "1")], tmp_path))


def test_suite_stream_is_pinned_with_a_pool(tmp_path):
    _assert_pinned("suite", _stream([("suite", "--jobs", "2")], tmp_path))


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_wide_override_stream_is_pinned(tmp_path, jobs):
    # one qs2 override sweep over 194,481 points, in-process and in a pool:
    # the path where the memoized qs2 inner sums see the most reuse
    workloads = _load_workloads()
    commands = workloads.build("sweep-wide", workloads.DEFAULT_SEED).with_jobs(jobs)
    assert len(commands) == 1
    _assert_pinned("sweep-wide", _stream(commands, tmp_path))


def test_series_deep_override_streams_are_pinned(tmp_path):
    # every axis named: the override path, including the m-major order of
    # series.strings against its ell-major default grid
    workloads = _load_workloads()
    commands = workloads.build("series-deep", workloads.DEFAULT_SEED).commands
    assert len(commands) == 3
    _assert_pinned("series-deep", _stream(commands, tmp_path))


@pytest.mark.parametrize("command", ["tree --depth 4", "tree --depth 3 --N 2 --sigma 1",
                                     "tree --depth 3 --N 3"])
def test_tree_document_is_pinned(tmp_path, command):
    # the level-N trees reach the leaves that the suite's burge.tree never does
    _assert_pinned(command, _stream([command.split()], tmp_path))


@pytest.mark.parametrize("command", ["verify gensum --N 5", "verify multinom.tnew --N 5",
                                     "verify multinom.diff --N 5", "verify burge.traf1 --N 4",
                                     "verify burge.traf2 --N 4", "verify burge.forms --N 5"])
def test_higher_rank_stream_is_pinned(tmp_path, command):
    # rank 4 lattice sums, where the class table merges solutions, and the
    # level-N Burge polynomial at ranks the suite does not reach
    _assert_pinned(command, _stream([command.split() + ["--jobs", "1"]], tmp_path))
