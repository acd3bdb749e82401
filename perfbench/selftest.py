"""Benchmark self-tests; they time nothing.

Run from the root of a checkout::

    python3 perfbench/selftest.py

They check that the seeded inputs repeat, that the host-scaling
arithmetic is right, that each workload's tail percentile leaves at
least ten samples beyond it at the configured run length, and that every
metric name and unit the benchmark prints matches ``BENCHMARK.json``.
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostscale  # noqa: E402
import loadgen  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


class Schedules(unittest.TestCase):
    def test_open_schedule_repeats_for_a_seed(self):
        for seed in (0, 1, 12345):
            for window in range(3):
                a = loadgen.open_schedule(seed, window, 4.0, 4.0)
                b = loadgen.open_schedule(seed, window, 4.0, 4.0)
                self.assertEqual(a, b)
                self.assertEqual(loadgen.fault_event(seed, window, 4.0),
                                 loadgen.fault_event(seed, window, 4.0))
        self.assertNotEqual(loadgen.open_schedule(1, 0, 4.0, 4.0),
                            loadgen.open_schedule(2, 0, 4.0, 4.0))

    def test_open_schedule_offers_fixed_load_and_mix(self):
        events = loadgen.open_schedule(7, 0, 4.0, 6.0)
        self.assertEqual(len(events), 24)
        kinds = [e.kind for e in events]
        self.assertEqual(kinds.count("translate"), 16)
        self.assertEqual(kinds.count("transcribe"), 4)
        self.assertEqual(kinds.count("classify"), 4)
        # every translate payload once per window
        self.assertEqual(sorted(e.index for e in events
                                if e.kind == "translate"), list(range(16)))
        times = [e.at for e in events]
        self.assertEqual(times, sorted(times))
        self.assertTrue(all(0.0 <= t < 4.0 for t in times))

    def test_payload_pools_repeat(self):
        a, b = loadgen.payload_pools(3), loadgen.payload_pools(3)
        self.assertEqual(a["translate"], b["translate"])
        for kind in ("transcribe", "classify"):
            for x, y in zip(a[kind], b[kind]):
                self.assertTrue((x == y).all())
        self.assertEqual(loadgen.closed_sequence(5, 64),
                         loadgen.closed_sequence(5, 64))

    def test_fault_sites_are_exponent_bits(self):
        params = [("b.weight", 3), ("c.weight", 5)]
        for index in range(50):
            site = loadgen.fault_site(index, "resnet", params)
            self.assertIn(site.bit, range(1, 9))
            self.assertIn(site.element, range(dict(params)[site.parameter]))
            self.assertEqual(site, loadgen.fault_site(index, "resnet",
                                                      params))

    def test_faults_visit_every_family_evenly(self):
        families = ("transformer", "seq2seq", "resnet")
        for seed in range(5):
            order = loadgen.fault_families(seed, families)
            self.assertEqual(sorted(order), sorted(families))
            self.assertEqual(order, loadgen.fault_families(seed, families))


class Scaling(unittest.TestCase):
    def test_factor(self):
        self.assertEqual(hostscale.factor(0.4, [0.4]), 1.0)
        self.assertAlmostEqual(hostscale.factor(0.4, [0.8]), 0.5)
        self.assertAlmostEqual(hostscale.factor(0.4, [0.2, 0.6]), 1.0)
        with self.assertRaises(ValueError):
            hostscale.factor(0.0, [0.4])
        with self.assertRaises(ValueError):
            hostscale.factor(0.4, [0.0])

    def test_summarize_scales_each_window(self):
        from workloads import Window

        class Fake:
            limit_ms, tail_pct = 150.0, 50.0

        slow = Window(completed=2, elapsed_s=2.0, latencies_ms=[200.0, 200.0],
                      op_ms=[200.0, 200.0], scale=0.5)
        fast = Window(completed=2, elapsed_s=1.0, latencies_ms=[100.0, 100.0],
                      op_ms=[100.0, None], attempted=2, scale=1.0)
        slow.attempted = 2
        out = run.summarize([slow, fast], Fake)
        self.assertAlmostEqual(out["p50_ms"], 100.0)
        self.assertAlmostEqual(out["raw_p50_ms"], 150.0)
        self.assertAlmostEqual(out["ops_per_s"], 2.0)
        self.assertAlmostEqual(out["raw_ops_per_s"], 4 / 3)
        self.assertAlmostEqual(out["ok_share"], 3 / 4)


class Tail(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        import workloads
        seconds = BENCH["run_seconds"]
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(0, seconds)
            count = wl.expected_samples()
            self.assertGreaterEqual(
                count, measure.min_samples_for_tail(wl.tail_pct), name)
            values = [float(v) for v in range(count)]
            self.assertGreaterEqual(measure.beyond(values, wl.tail_pct),
                                    measure.TAIL_BEYOND, name)


class Names(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_printed_names_and_units_match_benchmark_json(self):
        self.assertEqual(run.E2E_UNITS, {m["name"]: m["unit"]
                                         for m in BENCH["end_to_end"]})
        self.assertEqual(run.LAYER_UNITS, {m["name"]: m["unit"]
                                           for m in BENCH["per_layer"]})
        import workloads
        self.assertEqual(sorted(workloads.WORKLOADS),
                         sorted(w["name"] for w in BENCH["workloads"]))

    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end",
                                      "per_layer"})
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for metric in BENCH["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better",
                                           "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
            self.assertRegex(metric["unit"], self.UNIT)
        for metric in BENCH["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
            self.assertRegex(metric["unit"], self.UNIT)
        setup = next(m for m in BENCH["end_to_end"]
                     if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
