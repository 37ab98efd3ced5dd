"""Self-tests of the benchmark's own helpers.

    python3 perfbench/selftest.py

Kept apart from the package's test suite: the file name does not match
pytest's test-file pattern, so a plain ``pytest`` run from the root skips it.
"""

import os
import signal
import sys
import time
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from measure import RefClock, Tracer, self_times, tail_percentile  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_keeps_at_least_ten_beyond(self):
        pct, value, n = tail_percentile(range(1, 101))
        self.assertEqual((pct, n), (90, 100))
        self.assertEqual(sum(1 for x in range(1, 101) if x > value), 10)
        pct, value, n = tail_percentile(range(1, 21))
        self.assertEqual(sum(1 for x in range(1, 21) if x > value), 10)
        higher = tail_percentile(range(1, 21), min_beyond=9)
        self.assertGreater(higher[0], pct)

    def test_too_few_samples(self):
        self.assertIsNone(tail_percentile([0.5] * 15))
        self.assertIsNone(tail_percentile(range(19)))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
        names = ["a", "b", "c", "d"]
        parents = [-1, 0, 1, 0]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 9.0]
        self.assertEqual(
            self_times(names, parents, starts, ends),
            {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0},
        )

    def test_tracer_wraps_module_attributes(self):
        pkg = types.ModuleType("fakepkg")
        mod = types.ModuleType("fakepkg.m")

        def inner():
            time.sleep(0.02)
            return (None, True)

        def outer():
            time.sleep(0.01)
            return mod.inner()

        mod.inner, mod.outer = inner, outer
        sys.modules.update({"fakepkg": pkg, "fakepkg.m": mod})
        try:
            tracer = Tracer((
                ("m.outer", "m", "outer", "span"),
                ("m.inner", "m", "inner", "hits"),
            ))
            tracer.install("fakepkg")
            mod.outer()
            mod.outer()
            tracer.uninstall()
            mod.outer()
        finally:
            del sys.modules["fakepkg"], sys.modules["fakepkg.m"]
        self.assertIs(mod.inner, inner)
        got = tracer.summary()
        self.assertEqual(got["m.outer.calls"], 2)
        self.assertEqual(got["m.inner.calls"], 2)
        self.assertEqual(got["m.inner.hits"], 2)
        self.assertGreaterEqual(got["m.inner.self_s"], 0.04)
        self.assertGreaterEqual(got["m.outer.self_s"], 0.02)
        self.assertLess(got["m.outer.self_s"], 0.04)


class ReferenceClock(unittest.TestCase):
    def test_scales_elapsed_time_and_stops_its_timer(self):
        with RefClock() as clock:
            started, raw0 = time.perf_counter(), clock.raw()
            ref0 = clock()
            while time.perf_counter() - started < 0.3:
                sum(i * i for i in range(1000))
            raw, ref = clock.raw() - raw0, clock() - ref0
            elapsed = time.perf_counter() - started
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertLess(raw, elapsed)  # bursts left out
        self.assertGreater(raw, 0.8 * elapsed)
        self.assertTrue(0.2 < ref / raw < 5)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for seed in (0, 1, 12345):
            self.assertEqual(workloads.catalog_rows(seed), workloads.catalog_rows(seed))
            self.assertEqual(
                [(k.p, k.q) for k in workloads.census_inputs(seed)],
                [(k.p, k.q) for k in workloads.census_inputs(seed)],
            )
            self.assertEqual(
                [(k.p, k.q) for k in workloads.ladder_inputs(seed)],
                [(k.p, k.q) for k in workloads.ladder_inputs(seed)],
            )
        self.assertNotEqual(workloads.catalog_rows(1), workloads.catalog_rows(2))
        self.assertNotEqual(
            [(k.p, k.q) for k in workloads.census_inputs(1)],
            [(k.p, k.q) for k in workloads.census_inputs(2)],
        )

    def test_seed_changes_order_not_work(self):
        ladder = sorted(workloads.LADDER)
        census = sorted(workloads.normalized_fractions(workloads.CENSUS_MAX_P))
        catalog = set(workloads.normalized_fractions(workloads.CATALOG_MAX_P))
        self.assertEqual(len(census), 68)
        for seed in range(5):
            self.assertEqual(sorted((k.p, k.q) for k in workloads.ladder_inputs(seed)), ladder)
            self.assertEqual(sorted((k.p, k.q) for k in workloads.census_inputs(seed)), census)
            rows = workloads.catalog_rows(seed)
            self.assertEqual({(p, workloads.odd_rep(p, q)) for p, q, _ in rows}, catalog)
            by_label = {}
            for p, q, label in rows:
                by_label.setdefault(label[:-1], set()).add(workloads.knot_class(p, q))
            self.assertTrue(all(len(c) == 1 for c in by_label.values()))

    def test_knot_classes(self):
        cls = workloads.knot_class
        self.assertEqual(cls(21, 13), cls(21, 8))
        self.assertEqual(cls(7, 3), cls(7, 5))
        self.assertNotEqual(cls(11, 3), cls(11, 5))


class _FakePass:
    def __init__(self, blob, failures):
        self.blob, self.failures = blob, failures

    def check(self, tally):
        tally.attempted += 3
        for what in self.failures:
            tally.fail(what)
        return self.blob


class PassChecking(unittest.TestCase):
    def test_counts_do_not_depend_on_pass_count(self):
        counts = set()
        for n in (1, 3, 7):
            checker = workloads.PassChecker()
            for i in range(n):
                checker.check(_FakePass(b"r", ["k=1"]), f"pass {i + 1}")
            tally = checker.finish()
            counts.add((tally.attempted - (n > 1), len(tally.failed), len(tally.wrong)))
        self.assertEqual(counts, {(3, 1, 0)})

    def test_a_differing_pass_is_one_wrong_operation(self):
        checker = workloads.PassChecker()
        checker.check(_FakePass(b"r", ["k=1"]), "pass 1")
        checker.check(_FakePass(b"r", []), "pass 2")
        checker.check(_FakePass(b"s", ["k=1"]), "pass 3")
        tally = checker.finish()
        self.assertEqual((tally.attempted, len(tally.failed)), (4, 2))
        self.assertEqual(tally.wrong, ["pass 2, pass 3 differ from the first pass"])


if __name__ == "__main__":
    unittest.main()
