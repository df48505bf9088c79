"""Self-tests of the benchmark's tracer arithmetic and output checks.

    python3 bench/selftest.py

Run from a checkout; the tests import ``qident`` from ``src/``.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import sys
import textwrap
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from measure import Stream  # noqa: E402
from tracer import Tracer, enum_scanned, qident_modules, self_times  # noqa: E402


class FakeClock:
    """A clock that moves only when the traced code says it worked."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def fake_module(name: str, source: str, clock: FakeClock) -> types.ModuleType:
    mod = types.ModuleType(name)
    mod.CLOCK = clock
    exec(textwrap.dedent(source), mod.__dict__)
    return mod


class SelfTime(unittest.TestCase):
    def test_reference_on_nested_tree(self):
        # root [0,10] > a [1,4], b [5,9] > c [6,7]
        spans = [(0, None, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 0, 5.0, 9.0), (3, 2, 6.0, 7.0)]
        self.assertEqual(self_times(spans), {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})

    def test_tracer_aggregates_nested_calls(self):
        clock = FakeClock()
        mod = fake_module("fake.qpoly", """
            def leaf():
                CLOCK.now += 1.0
            def inner():
                CLOCK.now += 2.0
                leaf()
                leaf()
            def outer():
                CLOCK.now += 4.0
                inner()
                CLOCK.now += 0.5
                leaf()
        """, clock)
        tracer = Tracer(clock)
        tracer.install({"qpoly": mod})
        try:
            mod.outer()
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.agg["qpoly.leaf"], [3, 3.0, 3.0])
        self.assertEqual(tracer.agg["qpoly.inner"], [1, 4.0, 2.0])
        self.assertEqual(tracer.agg["qpoly.outer"], [1, 9.5, 4.5])
        self.assertEqual(tracer.module_self_s(), {"qpoly": 9.5})

    def test_kept_spans_match_reference(self):
        clock = FakeClock()
        mod = fake_module("fake.cli", """
            def main():
                CLOCK.now += 1.0
                _eval_point()
                _eval_point()
            def _eval_point():
                CLOCK.now += 2.0
                _helper()
            def _helper():
                CLOCK.now += 0.25
        """, clock)
        tracer = Tracer(clock)
        tracer.install({"cli": mod})
        try:
            mod.main()
        finally:
            tracer.uninstall()
        names = [s[2] for s in tracer.spans]
        self.assertEqual(names, ["cli.main", "cli.point", "cli.point"])
        self.assertEqual([s[1] for s in tracer.spans], [None, 0, 0])
        ref = self_times([(s[0], s[1], s[4], s[5]) for s in tracer.spans])
        self.assertEqual({s[0]: s[6] for s in tracer.spans}, ref)
        self.assertEqual(ref, {0: 1.0, 1: 2.25, 2: 2.25})


def _snapshot(modules):
    snap = {}
    for mod in modules.values():
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("qident"):
                for meth, fn in vars(obj).items():
                    snap[(obj.__module__, obj.__qualname__, meth)] = fn
    return snap


class WrapUnwrap(unittest.TestCase):
    def test_unwrap_restores_every_attribute(self):
        modules = qident_modules()
        before = _snapshot(modules)
        original_mul = modules["qpoly"].mul
        original_qform = modules["lattice"].CartanData.qform
        tracer = Tracer()
        tracer.install(modules)
        try:
            wrapped_mul = modules["qpoly"].mul
            self.assertIsNot(wrapped_mul, original_mul)
            for short in ("qbinom", "saalschutz", "burge", "multinom", "series", "cli", "qident"):
                self.assertIs(vars(modules[short])["mul"], wrapped_mul, short)
            self.assertIsNot(modules["lattice"].CartanData.qform, original_qform)
            # a call through another module's binding is counted under qpoly.mul
            modules["qbinom"].qbin_vector([(2, 3), (1, 1)])
            self.assertGreater(tracer.agg["qpoly.mul"][0], 0)
        finally:
            tracer.uninstall()
        after = _snapshot(modules)
        self.assertEqual(before.keys(), after.keys())
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)


class HashGate(unittest.TestCase):
    STREAM = (b'{"identity_id": "qs2", "params": {"L1": 0}, "verdict": "equal"}\n'
              b'{"summary": true, "identity_id": "qs2", "total": 1, "exit_code": 0}\n')

    def _failures(self, data: bytes):
        pin = workloads.Pin(hashlib.sha256(self.STREAM).hexdigest(), 2, 1)
        wl = workloads.Workload("sweep-wide", 0, (("verify", "qs2", "--jobs", "2"),), 1, pin)
        stream = Stream()
        stream.feed(data)
        return run.stream_failures(wl, stream.sha256, stream.lines, [0], [stream.summary()])

    def test_accepts_the_pinned_stream(self):
        self.assertEqual(self._failures(self.STREAM), [])

    def test_rejects_any_single_altered_byte(self):
        for i in range(len(self.STREAM)):
            altered = bytearray(self.STREAM)
            altered[i] ^= 0x01
            with self.subTest(byte=i):
                self.assertTrue(self._failures(bytes(altered)))


class EnumScanned(unittest.TestCase):
    def test_formula_matches_brute_force(self):
        vectors = importlib.import_module("qident.lattice")._vectors_summing_at_most
        for rank in (1, 2, 3):
            for v_sum in range(-3, 15):
                budget = v_sum // 2
                brute = 0 if v_sum < 0 else sum(
                    1 for vec in itertools.product(range(budget + 1), repeat=rank)
                    if sum(vec) <= budget)
                with self.subTest(rank=rank, v_sum=v_sum):
                    self.assertEqual(enum_scanned(rank, v_sum), brute)
                    if v_sum >= 0:
                        self.assertEqual(brute, sum(1 for _ in vectors(rank, budget)))


class Workloads(unittest.TestCase):
    def test_default_sweep_is_the_pinned_box(self):
        cmd = workloads.build("sweep-wide", workloads.DEFAULT_SEED).commands[0]
        box = ",".join(str(v) for v in range(-10, 11))
        for axis in ("--L1", "--L2", "--M", "--ell"):
            self.assertEqual(cmd[cmd.index(axis) + 1], box)

    def test_every_seed_keeps_the_sizes(self):
        for name in workloads.NAMES:
            default = workloads.build(name, workloads.DEFAULT_SEED)
            for seed in range(1, 20):
                wl = workloads.build(name, seed)
                self.assertEqual(wl.points, default.points)
                self.assertEqual(len(wl.commands), len(default.commands))
                self.assertEqual([len(c) for c in wl.commands], [len(c) for c in default.commands])


if __name__ == "__main__":
    unittest.main()
