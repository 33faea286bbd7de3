"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The unit tests feed the metric code fixed inputs.  The smoke tests run each
workload at its smallest size (building first if needed) and check that
every metric BENCHMARK.json names is printed with its unit.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402


class Percentile(unittest.TestCase):
    def test_nearest_rank_with_count(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 50), (50, 100))
        self.assertEqual(metrics.percentile(values, 99), (99, 100))
        self.assertEqual(metrics.percentile(values[::-1], 99), (99, 100))

    def test_small_and_empty_samples(self):
        self.assertEqual(metrics.percentile([7.5], 99), (7.5, 1))
        self.assertEqual(metrics.percentile([3, 1, 2], 50), (2, 3))
        self.assertEqual(metrics.percentile([], 50), (0.0, 0))


class ProcStat(unittest.TestCase):
    # Field 2 holds spaces and parentheses; utime=1234, stime=56.
    LINE = ("4242 (sintra (node) 0) S 1 4242 4242 0 -1 4194560 900 0 0 0 "
            "1234 56 0 0 20 0 5 0 100 123456 789 18446744073709551615\n")

    def test_parse(self):
        self.assertEqual(metrics.parse_proc_stat(self.LINE), (1234, 56))

    def test_cpu_seconds_sums_processes(self):
        later = self.LINE.replace(" 1234 56 ", " 1334 66 ")
        user, system = metrics.cpu_seconds([self.LINE, self.LINE],
                                           [later, self.LINE], 100)
        self.assertAlmostEqual(user, 1.0)
        self.assertAlmostEqual(system, 0.1)


class Wait(unittest.TestCase):
    def test_exit_code_and_timeout(self):
        self.assertEqual(procs.wait(subprocess.Popen(["true"]), 10.0), 0)
        self.assertEqual(procs.wait(subprocess.Popen(["false"]), 10.0), 1)
        slow = subprocess.Popen(["sleep", "10"])
        try:
            with self.assertRaises(subprocess.TimeoutExpired):
                procs.wait(slow, 0.05)
        finally:
            slow.kill()
            slow.wait()


def snapshot(counters=(), gauges=(), histograms=()):
    return {
        "schema": "sintra.metrics.v1",
        "counters": [{"name": n, "labels": l, "value": v}
                     for n, l, v in counters],
        "gauges": [{"name": n, "labels": l, "value": v} for n, l, v in gauges],
        "histograms": [{"name": n, "labels": l, "count": c, "sum": s,
                        "buckets": [{"bucket": b, "count": k}
                                    for b, k in buckets]}
                       for n, l, c, s, buckets in histograms],
    }


class PerRequestRatios(unittest.TestCase):
    def test_snapshot_delta_and_layer_split(self):
        cb = {"party": "0", "layer": "ch.r*.cb.*"}
        ba = {"party": "0", "layer": "ch.r*.vba.*"}
        ch = {"party": "0", "layer": "ch"}
        un = {"party": "0", "layer": "unrouted"}
        before = snapshot(
            counters=[("dispatcher.messages", cb, 10),
                      ("crypto.ops", {"op": "tdh2.encrypt"}, 1)],
            gauges=[("net.tx_syscalls", {"party": "0"}, 100.0)],
            histograms=[("dispatcher.handle_ms", cb, 1, 2.0, [(11, 1)])])
        after = snapshot(
            counters=[("dispatcher.messages", cb, 30),
                      ("dispatcher.messages", ba, 10),
                      ("dispatcher.messages", un, 10),
                      ("dispatcher.bytes", cb, 4000),
                      ("channel.rounds", ch, 4),
                      ("channel.parked_batches", ch, 1),
                      ("crypto.ops", {"op": "tdh2.encrypt"}, 11),
                      ("crypto.optimistic_hits", {"op": "coin"}, 3),
                      ("crypto.fallbacks", {"op": "coin"}, 1)],
            gauges=[("net.tx_syscalls", {"party": "0"}, 140.0),
                    ("net.rx_syscalls", {"party": "0"}, 60.0)],
            histograms=[("dispatcher.handle_ms", cb, 3, 8.0, [(11, 3)]),
                        ("dispatcher.handle_ms", ba, 2, 4.0, [(11, 2)]),
                        ("channel.batch_entries", ch, 4, 40.0, [(14, 4)])])
        delta = metrics.snapshot_delta(before, after)
        m = metrics.layer_metrics(delta, deliveries=10, cpu_user_s=0.2,
                                  cpu_sys_s=0.0)
        self.assertAlmostEqual(m["broadcast.handle_ms_per_delivery"], 0.6)
        self.assertAlmostEqual(m["agreement.handle_ms_per_delivery"], 0.4)
        self.assertAlmostEqual(m["broadcast.bytes_per_delivery"], 400.0)
        self.assertAlmostEqual(m["dispatcher.messages_per_delivery"], 4.0)
        self.assertAlmostEqual(m["dispatcher.unrouted_share"], 0.25)
        self.assertAlmostEqual(m["channel.entries_per_round"], 10.0)
        self.assertAlmostEqual(m["channel.parked_share"], 0.25)
        self.assertAlmostEqual(m["crypto.ops_per_delivery.tdh2.encrypt"], 1.0)
        self.assertAlmostEqual(m["crypto.optimistic_hit_ratio"], 0.75)
        self.assertAlmostEqual(m["net.syscalls_per_request"], 10.0)
        self.assertAlmostEqual(m["attribution.cpu_ms_per_delivery"], 20.0)
        self.assertAlmostEqual(m["attribution.handle_ms_per_delivery"], 1.0)
        self.assertAlmostEqual(
            m["attribution.unattributed_ms_per_delivery"], 19.0)

    def test_nothing_happened_is_zero_not_an_error(self):
        self.assertEqual(metrics.ratio(5, 0), 0.0)
        m = metrics.layer_metrics(metrics.snapshot_delta(None, snapshot()),
                                  0, 0.0, 0.0)
        self.assertTrue(all(v == 0.0 for v in m.values()))

    def test_merge_adds_nodes(self):
        one = metrics.snapshot_delta(None, snapshot(
            counters=[("client.admitted", {"party": "0"}, 5)]))
        two = metrics.snapshot_delta(None, snapshot(
            counters=[("client.admitted", {"party": "0"}, 7)]))
        merged = metrics.merge_deltas([one, two])
        self.assertEqual(list(merged["counters"].values()), [12])

    def test_slices_split_by_completion_time(self):
        line = ProcStat.LINE
        window = {"sample_ms": [0.0, 1000.0, 2000.0],
                  "proc_samples": [[line], [line], [line]],
                  "done_ms": [10.0, 999.0, 1000.0, 1500.0, 1999.0],
                  "latency_ms": [1.0, 2.0, 3.0, 4.0, 5.0]}
        parts = metrics.slices(window)
        self.assertEqual([p["latency_ms"] for p in parts],
                         [[1.0, 2.0], [3.0, 4.0, 5.0]])
        self.assertEqual([p["wall_s"] for p in parts], [1.0, 1.0])


class Smoke(unittest.TestCase):
    """Smallest run of every workload, traced and not."""

    @classmethod
    def setUpClass(cls):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        cls.expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        # Every workload run.py accepts, including any kept out of
        # BENCHMARK.json.
        cls.workloads = list(run.WORKLOADS)

    def test_units_match_the_code(self):
        self.assertEqual(self.expected[0], metrics.END_TO_END)
        self.assertEqual(self.expected[1], metrics.PER_LAYER)

    def test_every_workload_prints_every_metric(self):
        for workload in self.workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    out = subprocess.run(
                        [sys.executable, str(HERE / "run.py"),
                         "--workload", workload, "--seed", "7",
                         "--seconds", "1", "--trace", str(trace)],
                        cwd=HERE.parent, capture_output=True, text=True,
                        timeout=900)
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    self.assertEqual(printed, self.expected[trace])


if __name__ == "__main__":
    unittest.main()
