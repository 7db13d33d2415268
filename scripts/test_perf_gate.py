"""Tests for the perf gate's decision rule, on synthetic pair results.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import perf_gate  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    RUNS, ROWS = perf_gate.declared_rows(json.load(f))

SWEEP = ("paper_sweep", 0)
FLEET = ("fleet_clone", 0)


def result(run, failed=0, **values):
    """run.py's final JSON for `run`: every row metric 100 (ok_frac 1)
    unless given in `values` (dots in names spelt as double underscores)."""
    metrics = {m: {"value": 1.0 if m == "ok_frac" else 100.0, "unit": "x"}
               for r, m, _, _ in ROWS if r == run}
    for name, value in values.items():
        metrics[name.replace("__", ".")]["value"] = value
    return {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}


def pairs(n=5, head=None):
    """n equal pairs; head(i) may return {run: result} overrides for HEAD in
    pair i."""
    out = []
    for i in range(n):
        pair = {"base": {r: result(r) for r in RUNS}, "head": {r: result(r) for r in RUNS}}
        pair["head"].update((head or (lambda i: {}))(i))
        out.append(pair)
    return out


def failures(recorded):
    return perf_gate.judge(recorded, RUNS, ROWS)[0]


class DecisionRule(unittest.TestCase):
    def test_rows_cover_every_end_to_end_metric_and_the_two_layer_rows(self):
        self.assertEqual(len(RUNS), 4)
        self.assertEqual(len(ROWS), 3 * 7 + 2)
        self.assertIn((("paper_sweep", 1), "daq.ns_per_sample", "lower", 0.25), ROWS)
        self.assertIn((("paper_sweep", 1), "sim.host_ns_per_event", "lower", 0.25), ROWS)

    def test_all_pairs_equal_pass(self):
        found, table = perf_gate.judge(pairs(), RUNS, ROWS)
        self.assertEqual(found, [])
        self.assertEqual(len(table), len(ROWS))

    def test_a_majority_of_pairs_30_percent_worse_fails(self):
        slow = lambda i: {SWEEP: result(SWEEP, job_ms_p50=130.0)} if i < 3 else {}
        found = failures(pairs(head=slow))
        self.assertEqual(len(found), 1)
        self.assertIn("paper_sweep job_ms_p50", found[0])
        self.assertIn("3 of 5 pairs", found[0])

    def test_a_minority_of_pairs_30_percent_worse_passes(self):
        slow = lambda i: {SWEEP: result(SWEEP, job_ms_p50=130.0)} if i < 2 else {}
        self.assertEqual(failures(pairs(head=slow)), [])

    def test_lower_is_better_rows_fail_on_a_rise_not_a_fall(self):
        trace = ("paper_sweep", 1)
        up = lambda i: {trace: result(trace, daq__ns_per_sample=130.0)}
        down = lambda i: {trace: result(trace, daq__ns_per_sample=70.0)}
        self.assertEqual(len(failures(pairs(head=up))), 1)
        self.assertEqual(failures(pairs(head=down)), [])

    def test_higher_is_better_rows_fail_on_a_fall_not_a_rise(self):
        down = lambda i: {FLEET: result(FLEET, devices_per_s=70.0)}
        up = lambda i: {FLEET: result(FLEET, devices_per_s=130.0)}
        found = failures(pairs(head=down))
        self.assertEqual(len(found), 1)
        self.assertIn("fleet_clone devices_per_s", found[0])
        self.assertEqual(failures(pairs(head=up)), [])

    def test_the_bound_itself_is_not_a_regression(self):
        edge = lambda i: {SWEEP: result(SWEEP, job_ms_p90=125.0, sim_s_per_host_s=75.0)}
        self.assertEqual(failures(pairs(head=edge)), [])

    def test_ok_frac_has_its_own_tighter_bound(self):
        # 0.995 is within ok_frac's 0.01 bound, 0.98 is not; neither comes
        # near the 0.25 of the timings.  The failed share is equal on both
        # sides here, so only the ok_frac row speaks.
        within = lambda i: {SWEEP: result(SWEEP, ok_frac=0.995)}
        beyond = lambda i: {SWEEP: result(SWEEP, ok_frac=0.98)}
        self.assertEqual(failures(pairs(head=within)), [])
        found = failures(pairs(head=beyond))
        self.assertEqual(len(found), 1)
        self.assertIn("paper_sweep ok_frac", found[0])

    def test_head_failing_a_larger_share_of_jobs_fails(self):
        # One failed job in one pair is enough: no majority is needed.
        flaky = lambda i: {FLEET: result(FLEET, failed=1)} if i == 0 else {}
        found = failures(pairs(head=flaky))
        self.assertEqual(len(found), 1)
        self.assertIn("fleet_clone: HEAD failed 1/500 jobs, BASE 0/500", found[0])

    def test_head_failing_no_more_than_base_passes(self):
        recorded = pairs()
        for pair in recorded:
            pair["base"][FLEET] = result(FLEET, failed=1)
            pair["head"][FLEET] = result(FLEET, failed=1)
        self.assertEqual(failures(recorded), [])

    def test_a_head_run_with_no_result_fails(self):
        broken = lambda i: {("paper_sweep", 1): None} if i == 4 else {}
        found = failures(pairs(head=broken))
        self.assertEqual(found, ["pair 5: HEAD paper_sweep --trace 1 gave no result"])

    def test_a_base_run_with_no_result_fails(self):
        recorded = pairs()
        recorded[2]["base"][SWEEP] = None
        self.assertEqual(failures(recorded), ["pair 3: BASE paper_sweep gave no result"])

    def test_worse_is_relative_to_base(self):
        self.assertTrue(perf_gate.worse(100.0, 126.0, "lower", 0.25))
        self.assertFalse(perf_gate.worse(100.0, 124.0, "lower", 0.25))
        self.assertTrue(perf_gate.worse(100.0, 74.0, "higher", 0.25))
        self.assertFalse(perf_gate.worse(100.0, 76.0, "higher", 0.25))


if __name__ == "__main__":
    unittest.main()
