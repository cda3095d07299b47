"""Tests of the benchmark's own reduction code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        s = list(range(1, 101))  # 1..100
        self.assertEqual(run.nearest_rank(s, 50), 50)
        self.assertEqual(run.nearest_rank(s, 99), 99)
        self.assertEqual(run.nearest_rank(s, 100), 100)
        self.assertEqual(run.nearest_rank([7, 3, 5], 50), 5)
        # Rank ceil(0.9 * 11) = 10: the tenth smallest.
        self.assertEqual(run.nearest_rank(list(range(11)), 90), 9)
        self.assertEqual(run.nearest_rank([4.0], 99), 4.0)
        with self.assertRaises(ValueError):
            run.nearest_rank([], 50)

    def test_ten_samples_beyond(self):
        self.assertEqual(run.samples_beyond(1000, 99), 10)
        self.assertTrue(run.supported(1000, 99))
        self.assertFalse(run.supported(999, 99))
        self.assertTrue(run.supported(100, 90))
        self.assertFalse(run.supported(99, 90))
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(600), 95.0)
        self.assertEqual(run.tail_percentile(150), 90.0)
        self.assertIsNone(run.tail_percentile(50))


class SloRate(unittest.TestCase):
    def rung(self, rate, lat):
        return {"rate_rps": rate, "latency_ms": lat}

    def test_highest_rung_meeting_limit(self):
        flat = [5.0] * 300
        slow = [5.0] * 280 + [80.0] * 20  # p95 over the limit
        rungs = [self.rung(80, flat), self.rung(160, flat), self.rung(240, slow)]
        self.assertEqual(run.slo_rate(rungs, limit_ms=40), 160)
        self.assertEqual(run.slo_rate(rungs[:2], limit_ms=40), 160)

    def test_stops_at_first_failing_rung(self):
        flat = [5.0] * 300
        bad = [50.0] * 300
        rungs = [self.rung(240, flat), self.rung(80, flat), self.rung(160, bad)]
        self.assertEqual(run.slo_rate(rungs, limit_ms=40), 80)
        self.assertEqual(run.slo_rate([self.rung(80, bad)], limit_ms=40), 0.0)

    def test_growing_backlog_fails_rung(self):
        # Tail under the limit, but latency climbs through the phase.
        ramp = [1.0 + 0.1 * i for i in range(300)]
        self.assertTrue(run.backlog_growing(ramp))
        self.assertFalse(run.backlog_growing([5.0, 6.0, 5.5, 6.5] * 75))
        rungs = [self.rung(80, [5.0] * 300), self.rung(160, ramp)]
        self.assertEqual(run.slo_rate(rungs, limit_ms=40), 80)

    def test_too_few_samples_fails_rung(self):
        self.assertEqual(run.slo_rate([self.rung(80, [1.0] * 50)], 40), 0.0)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ("job", 0, 0, 100, 0.0),
            ("layer", 0, 10, 40, 0.0),
            ("gemm", 0, 15, 20, 8.0),
            ("layer", 0, 60, 30, 0.0),
            ("gemm", 0, 70, 10, 4.0),
        ]
        t = run.self_times(spans)
        self.assertEqual(t["job"]["self_us"], 30)
        self.assertEqual(t["layer"]["calls"], 2)
        self.assertEqual(t["layer"]["total_us"], 70)
        self.assertEqual(t["layer"]["self_us"], 40)
        self.assertEqual(t["gemm"]["self_us"], 30)
        self.assertEqual(t["gemm"]["work"], 12.0)

    def test_threads_do_not_nest(self):
        spans = [("batch", 1, 0, 100, 0.0), ("phase", 0, 10, 20, 0.0)]
        t = run.self_times(spans)
        self.assertEqual(t["batch"]["self_us"], 100)
        self.assertEqual(t["phase"]["self_us"], 20)

    def test_covered_union(self):
        self.assertEqual(run.covered_us([(0, 10), (5, 20), (30, 40)]), 30)
        self.assertEqual(run.covered_us([]), 0)


def raw_record(outputs):
    return {
        "workload": "eval", "seed": 1, "seconds": 20,
        "machine": {}, "setup_s": [1.0, 1.1, 0.9], "job_s": 10.0,
        "cpu_s": 10.0, "peak_rss_mb": 50.0, "work": 1000,
        "latency_ms": [float(i) for i in range(200)],
        "attempted": 1000, "failed": 0, "outputs": outputs,
        "checks": [{"name": "ok", "ok": True}], "phases": [], "layer": {},
    }


class Golden(unittest.TestCase):
    def test_mismatch_listed(self):
        self.assertEqual(run.golden_mismatches({"a": 1, "b": 2}, {"a": 1, "b": 2}), [])
        self.assertEqual(len(run.golden_mismatches({"a": 1}, {"a": 2, "b": 3})), 2)

    def reduce_exit(self, outputs, golden):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "raw.json")
            with open(path, "w") as f:
                json.dump(raw_record(outputs), f)
            # Reduce against a golden record written beside the raw one.
            gpath = os.path.join(d, "golden.json")
            with open(gpath, "w") as f:
                json.dump({"seed": 1, "seconds": 20, "workloads": {"eval": golden}}, f)
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys, run; run.GOLDEN = sys.argv[1]; "
                 "sys.exit(run.main(['--workload', 'eval', '--raw', sys.argv[2]]))",
                 gpath, path],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True, text=True)
            return proc.returncode, proc.stdout

    def test_golden_mismatch_exits_nonzero(self):
        code, out = self.reduce_exit({"clean": 0.5}, {"clean": 0.75})
        self.assertNotEqual(code, 0)
        self.assertFalse(json.loads(out.strip().splitlines()[-1])["correct"])

    def test_golden_match_exits_zero(self):
        code, out = self.reduce_exit({"clean": 0.75}, {"clean": 0.75})
        self.assertEqual(code, 0, out)
        last = json.loads(out.strip().splitlines()[-1])
        self.assertTrue(last["correct"])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})

    def test_failed_check_exits_nonzero(self):
        raw = raw_record({})
        raw["checks"][0]["ok"] = False
        _, _, code = run.reduce(raw, False, None)
        self.assertNotEqual(code, 0)


class MetricSets(unittest.TestCase):
    def test_benchmark_json_matches_reduction(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        got = {k: u for k, (_, u) in run.end_to_end(raw_record({})).items()}
        self.assertEqual(e2e, got)
        layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(set(layer), set(run.per_layer_names()))
        for name, unit in layer.items():
            self.assertEqual(run._unit(name), unit, name)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
