"""Tests for the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The digest test builds the harness (as run.py does) and runs it twice per
workload, which takes about a minute once the build exists.
"""

import json
import os
import random
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        with self.assertRaises(ValueError):
            run.tail_percentile(list(range(1, 100)), 0.9)
        self.assertEqual(run.tail_percentile(list(range(1, 101)), 0.9), 90)

    def test_p99_needs_a_thousand_samples(self):
        with self.assertRaises(ValueError):
            run.tail_percentile(list(range(1, 1000)), 0.99)
        self.assertEqual(run.tail_percentile(list(range(1, 1001)), 0.99), 990)

    def test_order_of_samples_does_not_matter(self):
        values = [float(v) for v in range(1, 201)]
        shuffled = values[:]
        random.Random(7).shuffle(shuffled)
        self.assertEqual(run.tail_percentile(shuffled, 0.9), run.tail_percentile(values, 0.9))

    def test_empty_input_is_refused(self):
        with self.assertRaises(ValueError):
            run.tail_percentile([], 0.5)

    def test_job_samples_keep_the_fewest_middle_runs_the_p90_needs(self):
        self.assertEqual(run.tail_percentile(list(range(run.P90_SAMPLES)), 0.9), 89)
        with self.assertRaises(ValueError):
            run.tail_percentile(list(range(run.P90_SAMPLES - 1)), 0.9)
        # 30 jobs need the 4 runs each nearest their median; failed runs (-1)
        # never count.
        passes = [{"job_ms": [100.0 * (p + 1) + j for j in range(30)], "host_probe_ms": [1.0] * 30}
                  for p in range(6)]
        passes[0]["job_ms"][0] = -1.0
        samples = run.job_samples({"workload": "server_openloop", "passes": passes})
        self.assertEqual(len(samples), 120)
        self.assertEqual([s for s in samples if s % 100 == 0], [200.0, 300.0, 400.0, 500.0])
        self.assertEqual(sorted(s for s in samples if s % 100 == 1), [201.0, 301.0, 401.0, 501.0])

    def test_job_times_are_corrected_by_the_probe_before_them(self):
        # The same job measured on a host at full speed and at half speed,
        # where the probe took twice as long, corrects to the same time.
        passes = [{"job_ms": [40.0, 10.0], "host_probe_ms": [2.0, 1.0]},
                  {"job_ms": [20.0, 20.0], "host_probe_ms": [1.0, 2.0]}]
        raw = {"workload": "paper_sweep", "passes": passes}
        self.assertEqual(run.corrected_job_ms(raw), [[20.0, 20.0], [10.0, 10.0]])
        # A fleet's time rises as the probe's to the power 1.5.
        passes = [{"job_ms": [80.0], "host_probe_ms": [4.0]},
                  {"job_ms": [10.0], "host_probe_ms": [1.0]}]
        raw = {"workload": "fleet_clone", "passes": passes}
        self.assertEqual(run.corrected_job_ms(raw), [[10.0, 10.0]])
        self.assertEqual(set(run.HOST_SENSITIVITY), set(run.WORKLOADS))

    def test_middle_keeps_the_values_nearest_the_median(self):
        self.assertEqual(run.middle([5, 1, 4, 2, 3], 1), [3])
        self.assertEqual(run.middle([5, 1, 4, 2, 3], 3), [2, 3, 4])
        self.assertEqual(run.middle([4, 1, 3, 2], 2), [2, 3])
        self.assertEqual(run.middle([2, 1], 4), [1, 2])


class MetricNameGrammar(unittest.TestCase):
    def test_declared_metrics_follow_the_grammar(self):
        end_to_end, per_layer = run.declared_metrics()
        names = [m["name"] for m in end_to_end + per_layer]
        self.assertEqual(len(names), len(set(names)))
        for m in end_to_end + per_layer:
            self.assertTrue(run.valid_name(m["name"]), m["name"])
            self.assertTrue(run.valid_unit(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("higher", "lower"))

    def test_setup_metric_is_declared(self):
        end_to_end, _ = run.declared_metrics()
        setup = [m for m in end_to_end if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": setup[0]["bound"]}])

    def test_a_declared_name_outside_the_grammar_stops_the_run(self):
        bad = {"end_to_end": [{"name": "job ms", "unit": "ms"}], "per_layer": []}
        with mock.patch("builtins.open", mock.mock_open(read_data=json.dumps(bad))):
            with self.assertRaises(SystemExit):
                run.declared_metrics()

    def test_grammar_rejects_bad_names_and_units(self):
        for name in ["", "_x", ".x", "a b", "a" * 65, "café", "x/y"]:
            self.assertFalse(run.valid_name(name), name)
        for name in ["x", "0x", "a.b-c_d", "a" * 64]:
            self.assertTrue(run.valid_name(name), name)
        for unit in ["", "m s", "a" * 17, "ms\n"]:
            self.assertFalse(run.valid_unit(unit), unit)
        for unit in ["ms", "s/s", "1/s", "%", "count"]:
            self.assertTrue(run.valid_unit(unit), unit)

    def test_computed_metrics_match_the_declared_ones(self):
        end_to_end, per_layer = run.declared_metrics()
        raw = {
            "workload": "paper_sweep",
            "passes": [{"job_ms": [float(v) for v in range(1, 51)], "host_probe_ms": [1.0] * 50,
                        "job_sim_s": [10.0] * 50, "job_devices": [1] * 50}] * 4,
            "setup_s": [0.1, 0.2, 0.3],
            "setup_host_probe_ms": [1.0, 1.0, 1.0],
            "peak_rss_mib": 10.0,
            "attempted": 30,
        }
        layer_pass = {key: 1.0 for key in (
            "daq_s", "daq_samples", "events", "cancelled", "run_s", "quanta", "governor_s",
            "decisions", "changes", "next_s", "next_calls", "requests", "rejected", "shed",
            "build_s", "finish_s", "warmup_s", "restore_s", "restores", "image_bytes", "images",
            "fold_s", "tape_segments", "busy_s", "threads", "wall_s")}
        self.assertEqual(set(run.end_to_end(raw, 0)), {m["name"] for m in end_to_end})
        self.assertEqual(set(run.layer_values(layer_pass)), {m["name"] for m in per_layer})


class DigestStability(unittest.TestCase):
    def test_two_runs_give_the_same_digests(self):
        binary = run.build()
        for workload in run.WORKLOADS:
            first = run.run_harness(binary, workload, 3, 1, 0)
            second = run.run_harness(binary, workload, 3, 1, 0)
            self.assertEqual(first["failed"], 0, first["errors"])
            self.assertEqual(second["failed"], 0, second["errors"])
            self.assertTrue(first["job_digests"])
            self.assertEqual(first["job_digests"], second["job_digests"], workload)

    def test_reference_covers_every_workload(self):
        with open(run.REFERENCE) as f:
            ref = json.load(f)
        self.assertEqual(ref["seed"], run.DEFAULT_SEED)
        for workload in run.WORKLOADS:
            entry = ref["workloads"][workload]
            self.assertEqual(run.workload_digest(entry["jobs"]), entry["digest"])


if __name__ == "__main__":
    unittest.main()
