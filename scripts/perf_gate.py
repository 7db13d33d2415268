#!/usr/bin/env python3
"""Same-host performance gate: HEAD against BASE, measured by perfbench.

    python3 scripts/perf_gate.py BASE_DIR HEAD_DIR

BASE_DIR and HEAD_DIR are two full checkouts of the repository, in CI the
merge-base and HEAD in two git worktrees.  Each side runs its own
perfbench/run.py, which builds that side's code into that side's
.bench_build.  The gate runs PAIRS pairs; in each pair both sides run every
workload of BENCHMARK.json once, plus one traced (--trace 1) paper_sweep,
the two sides back to back per run and the side that goes first
alternating from pair to pair.

It fails, exiting 1, when
  - for any (workload, row), HEAD is worse than BASE by more than the row's
    bound in a majority of pairs.  The rows are every end-to-end metric of
    BENCHMARK.json, with its bound, on every workload, plus LAYER_ROWS from
    the traced paper_sweep with LAYER_BOUND;
  - a HEAD run gives no result, or its failed share of jobs on a run is
    larger than BASE's;
  - a BASE run gives no result, since the gate then cannot compare.
The bounds are read from BASE's BENCHMARK.json, so no change can loosen
the gate that judges it.
"""

import json
import os
import statistics
import subprocess
import sys
import time

# Sized to about 10 runner-minutes on a 4-vCPU host: one pair of the eight
# runs below takes about 2 minutes at RUN_SECONDS, after the two builds.
# run.py repeats passes until RUN_SECONDS are spent and at least 3 passes
# and 100 job samples are in, so at 1 s the floor sets every run's length.
PAIRS = 5
RUN_SECONDS = 1

# The per-layer rows that stand in for micro benchmarks of the DAQ block
# passes, the event queue and the kernel tick, from one traced paper_sweep.
LAYER_RUN = ("paper_sweep", 1)
LAYER_ROWS = ("daq.ns_per_sample", "sim.host_ns_per_event")
LAYER_BOUND = 0.25


def declared_rows(benchmark):
    """The gate's runs and rows from one BENCHMARK.json document.

    Runs are (workload, trace) keys; each row is (run, metric, better,
    bound)."""
    workloads = [(w["name"], 0) for w in benchmark["workloads"]]
    rows = [(run, m["name"], m["better"], m["bound"])
            for run in workloads for m in benchmark["end_to_end"]]
    rows += [(LAYER_RUN, m["name"], m["better"], LAYER_BOUND)
             for m in benchmark["per_layer"] if m["name"] in LAYER_ROWS]
    return workloads + [LAYER_RUN], rows


def worse(base, head, better, bound):
    """Whether `head` is worse than `base` by more than `bound`, relative
    to `base`."""
    change = (head - base) / base
    return (-change if better == "higher" else change) > bound


def run_name(run):
    workload, trace = run
    return workload + (" --trace 1" if trace else "")


def judge(pairs, runs, rows):
    """The gate's verdict on recorded pairs.

    `pairs` is a list of {"base": {run: result}, "head": {run: result}},
    a result being run.py's final JSON object, or None when the run gave
    none.  Returns (failures, table): failures is a list of reasons, empty
    when the gate passes; table has one (run, metric, base median, head
    median, pairs worse) entry per row."""
    failures = []
    usable = []
    for i, pair in enumerate(pairs, 1):
        ok = True
        for side in ("base", "head"):
            for run in runs:
                if pair[side].get(run) is None:
                    failures.append(f"pair {i}: {side.upper()} {run_name(run)} gave no result")
                    ok = False
        if ok:
            usable.append(pair)

    def total(side, run, key):
        return sum(p[side][run][key] for p in usable)

    for run in runs:
        base_failed, base_attempted = total("base", run, "failed"), total("base", run, "attempted")
        head_failed, head_attempted = total("head", run, "failed"), total("head", run, "attempted")
        # HEAD's failed share is larger than BASE's, compared without division.
        if head_failed * base_attempted > base_failed * head_attempted:
            failures.append(f"{run_name(run)}: HEAD failed {head_failed}/{head_attempted} jobs, "
                            f"BASE {base_failed}/{base_attempted}")

    table = []
    for run, metric, better, bound in rows:
        base = [p["base"][run]["metrics"][metric]["value"] for p in usable]
        head = [p["head"][run]["metrics"][metric]["value"] for p in usable]
        n_worse = sum(worse(b, h, better, bound) for b, h in zip(base, head))
        if usable:
            table.append((run, metric, statistics.median(base), statistics.median(head), n_worse))
        if 2 * n_worse > len(pairs):
            failures.append(f"{run_name(run)} {metric}: HEAD worse than BASE by more than "
                            f"{bound:g} in {n_worse} of {len(pairs)} pairs")
    return failures, table


def run_side(checkout, run):
    """One perfbench run in `checkout`; its result, or None."""
    workload, trace = run
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    # Each checkout builds into its own tree: drop the variable that would
    # point both at one.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    checkouts = {"base": os.path.abspath(argv[1]), "head": os.path.abspath(argv[2])}
    with open(os.path.join(checkouts["base"], "BENCHMARK.json")) as f:
        runs, rows = declared_rows(json.load(f))

    pairs = []
    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"base": {}, "head": {}}
        for run in runs:
            for side in order:
                start = time.monotonic()
                result = run_side(checkouts[side], run)
                pair[side][run] = result
                # One line per run, so the log holds every recorded pair.
                print(f"pair {i + 1} {side} {run_name(run)} ({time.monotonic() - start:.0f} s): "
                      f"{json.dumps(result)}", flush=True)
        pairs.append(pair)

    failures, table = judge(pairs, runs, rows)
    print(f"\n{'run':<26}{'metric':<24}{'BASE median':>14}{'HEAD median':>14}  worse pairs")
    for run, metric, base, head, n_worse in table:
        print(f"{run_name(run):<26}{metric:<24}{base:>14.6g}{head:>14.6g}  {n_worse}/{len(pairs)}")
    if failures:
        print("\nperf gate FAILED:")
        for reason in failures:
            print(f"  {reason}")
        return 1
    print(f"\nperf gate passed: no row worse than its bound in a majority of {len(pairs)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
