"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import random
import statistics
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


def span(name, start, end, parent=-1, thread=0):
    return {"name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "thread": thread}


class PercentileRule(unittest.TestCase):
    def test_requested_level_kept_with_ten_beyond(self):
        self.assertEqual(stats.tail_level(100, 0.90), 0.90)
        self.assertEqual(stats.tail_level(1000, 0.99), 0.99)

    def test_level_lowered_until_ten_beyond(self):
        self.assertAlmostEqual(stats.tail_level(100, 0.99), 0.90)
        self.assertAlmostEqual(stats.tail_level(50, 0.90), 0.80)

    def test_never_below_the_median(self):
        self.assertEqual(stats.tail_level(12, 0.99), 0.5)
        self.assertEqual(stats.tail_level(1, 0.9), 0.5)
        with self.assertRaises(ValueError):
            stats.tail_level(0, 0.9)

    def test_at_least_ten_samples_beyond_the_value(self):
        rng = random.Random(7)
        for n in (21, 40, 99, 100, 101, 250, 1000, 5000):
            xs = [rng.random() for _ in range(n)]
            for p in (0.9, 0.99):
                value = stats.tail(xs, p)
                beyond = sum(1 for x in xs if x > value)
                self.assertGreaterEqual(beyond, 10, (n, p))
                self.assertLessEqual(stats.tail_level(n, p), p)

    def test_linear_interpolation(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertEqual(stats.percentile(xs, 0.5), 3.0)
        self.assertEqual(stats.percentile(xs, 0.9), 4.6)
        self.assertEqual(stats.percentile(xs, 1.0), 5.0)
        self.assertEqual(stats.percentile([2.0], 0.99), 2.0)


    def test_windowed_tail_ignores_a_burst_in_one_window(self):
        xs = [1, 2, 3, 4, 100, 5, 6, 7]
        self.assertEqual(stats.windowed(xs, 4, max), 5.5)
        self.assertEqual(stats.windowed(xs, 1, max), 100)
        self.assertEqual(stats.windowed([3.0], 30, max), 3.0)


class MedianAndQuartiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        self.assertEqual(stats.quartiles(xs), (2.5, 7.5))
        rng = random.Random(3)
        ys = [rng.random() for _ in range(10)]
        q = statistics.quantiles(ys, n=4)
        self.assertEqual(stats.quartiles(ys), (q[0], q[2]))

    def test_spread_is_quartile_distance_over_median(self):
        self.assertEqual(stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9]), 1.0)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class SpanSelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [
            span("step", 0, 100),
            span("a", 10, 40, parent=0),
            span("a.inner", 15, 20, parent=1),
            span("b", 50, 60, parent=0),
        ]
        for got, want in zip(stats.self_times(spans), [60, 25, 5, 10]):
            self.assertAlmostEqual(got, want * 1e-9)

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [
            span("step", 0, 100),
            span("a", 10, 40, parent=0, thread=1),
            span("b", 30, 60, parent=0, thread=2),
            span("c", 90, 130, parent=0),
        ]
        # covered: [10, 60) and [90, 100) -> 60 of 100
        self.assertAlmostEqual(stats.self_times(spans)[0], 40e-9)

    def test_per_root_sums_direct_children_by_name(self):
        spans = [
            span("step", 0, 100),
            span("engine.forward", 0, 30, parent=0),
            span("transport.push_grads", 30, 35, parent=0),
            span("transport.push_grads", 35, 38, parent=0),
            span("engine.inner", 1, 2, parent=1),
            span("step", 200, 250),
            span("engine.forward", 200, 240, parent=5),
        ]
        roots = stats.per_root(spans, "step")
        self.assertEqual(len(roots), 2)
        self.assertAlmostEqual(roots[0]["duration"], 100e-9)
        self.assertAlmostEqual(roots[0]["self"], 62e-9)
        self.assertAlmostEqual(roots[0]["children"]["engine.forward"], 30e-9)
        self.assertAlmostEqual(
            roots[0]["children"]["transport.push_grads"], 8e-9)
        self.assertNotIn("engine.inner", roots[0]["children"])
        self.assertAlmostEqual(roots[1]["self"], 10e-9)
        self.assertAlmostEqual(
            run.median_child(roots, "engine.forward"), 35e-9)

    def test_chrome_trace_events(self):
        trace = stats.chrome_trace([span("step", 1000, 3000, thread=2)])
        (event,) = trace["traceEvents"]
        self.assertEqual(event["ph"], "X")
        self.assertEqual((event["ts"], event["dur"], event["tid"]),
                         (1.0, 2.0, 2))


def serve_phase(offered, accepted, shed, rejected, completed, failed):
    return {"offered": offered, "accepted": accepted, "shed": shed,
            "rejected": rejected, "completed": completed, "failed": failed,
            "plan_cache_misses": 0}


class Accounting(unittest.TestCase):
    def test_serving_attempts_count_every_refusal(self):
        raw = {"kind": "serve", "checks": [],
               "untraced": serve_phase(100, 95, 2, 3, 94, 1),
               "traced": serve_phase(50, 50, 0, 0, 50, 0)}
        self.assertEqual(run.attempts(raw), (150, 6))

    def test_training_attempts_count_non_finite_losses(self):
        raw = {"kind": "train", "losses": [3.0, 2.9, None],
               "traced_losses": [3.0, float("nan")]}
        self.assertEqual(run.attempts(raw), (5, 2))

    def test_loss_checks(self):
        ok = {"kind": "train", "checks": [], "losses": [3.0, 2.5, 2.8, 2.0]}
        self.assertTrue(all(c[1] for c in run.checks(ok)))
        rising = dict(ok, losses=[2.0, 2.5, 3.0])
        self.assertFalse(all(c[1] for c in run.checks(rising)))
        bad = dict(ok, checks=[{"name": "x", "ok": False, "detail": ""}])
        self.assertFalse(all(c[1] for c in run.checks(bad)))

    def test_unique_batches_dedupes_requests_of_one_batch(self):
        phase = {"batch_s": [0.5, 0.5, 0.5, 0.25, 0.5],
                 "batch_size": [3, 3, 3, 1, 1]}
        self.assertEqual(sorted(run.unique_batches(phase)), [0.25, 0.5, 0.5])


class BenchmarkJson(unittest.TestCase):
    def test_matches_the_metric_tables(self):
        with open(BENCH.parent / "BENCHMARK.json") as f:
            self.assertEqual(json.load(f), metrics.benchmark_json())

    def test_contract_limits(self):
        doc = metrics.benchmark_json()
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for w in doc["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))
        for m in doc["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
