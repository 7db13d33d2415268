#!/usr/bin/env python3
"""Compare two perf_harness runs and flag regressions.

Usage:
    scripts/bench_diff.py OLD.json NEW.json [--threshold=0.25]

Each argument is either a dcs-bench/1 run object (what `perf_harness --out`
or `fleet_scale --out` writes) or the committed dcs-bench-trajectory/1 file
(BENCH_dcs.json), in which case a specific entry can be picked with
`FILE:LABEL`; without a label the most recent entry sharing at least one
benchmark name with the new run is used (falling back to the last entry).
The trajectory interleaves perf_harness and fleet_scale entries, so both
CI invocations resolve to the right baseline automatically:

    scripts/bench_diff.py BENCH_dcs.json BENCH_ci.json        # perf_harness
    scripts/bench_diff.py BENCH_dcs.json BENCH_fleet_ci.json  # fleet_scale

while

    scripts/bench_diff.py BENCH_dcs.json:pr5-baseline BENCH_dcs.json:pr5-optimized

compares two named entries of the history.

Prints an old-vs-new table for every benchmark present in both runs and
exits 1 if any "micro" benchmark regressed by more than the threshold
(default 25%).  "e2e" wall-clock rows are advisory: printed, never gating.
When both runs record the DAQ's ISA variant (host.daq_variant, written by
perf_harness) and the two differ, a warning says so: the DAQ rows then
compare instruction sets as well as code.
"""

import json
import sys


def load_run(spec, prefer_names=None):
    path, _, label = spec.partition(":")
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") == "dcs-bench/1":
        return doc
    if doc.get("schema") == "dcs-bench-trajectory/1":
        entries = doc.get("entries", [])
        if not entries:
            sys.exit(f"{path}: trajectory file has no entries")
        if label:
            for entry in entries:
                if entry.get("label") == label:
                    return entry
            sys.exit(f"{path}: no entry labelled {label!r}")
        # No label: prefer the most recent entry that overlaps the other
        # run's benchmark names, so a trajectory interleaving perf_harness
        # and fleet_scale entries resolves each diff to its own baseline.
        if prefer_names:
            for entry in reversed(entries):
                names = {b["name"] for b in entry.get("benchmarks", [])}
                if names & prefer_names:
                    return entry
        return entries[-1]
    sys.exit(f"{path}: unrecognised schema {doc.get('schema')!r}")


def main(argv):
    threshold = 0.25
    args = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            args.append(arg)
    if len(args) != 2:
        sys.exit(__doc__)

    new_run = load_run(args[1])
    old_run = load_run(args[0], prefer_names={b["name"] for b in new_run["benchmarks"]})
    old_by_name = {b["name"]: b for b in old_run["benchmarks"]}

    print(f"old: {old_run.get('label')}  ({old_run.get('host', {}).get('cpu')})")
    print(f"new: {new_run.get('label')}  ({new_run.get('host', {}).get('cpu')})")
    old_variant = old_run.get("host", {}).get("daq_variant")
    new_variant = new_run.get("host", {}).get("daq_variant")
    if old_variant and new_variant and old_variant != new_variant:
        print(f"warning: the runs used different DAQ block-pass variants "
              f"({old_variant} vs {new_variant}); the DAQ rows compare ISAs, "
              f"not code")
    print(f"{'benchmark':<34}{'old':>14}{'new':>14}{'delta':>10}  unit")

    regressions = []
    for bench in new_run["benchmarks"]:
        name = bench["name"]
        old = old_by_name.get(name)
        if old is None:
            print(f"{name:<34}{'-':>14}{bench['median']:>14.3f}{'new':>10}  {bench['unit']}")
            continue
        old_median, new_median = old["median"], bench["median"]
        if old_median == 0:
            continue
        # Positive ratio = improvement, respecting the benchmark's direction.
        if bench.get("higher_is_better", True):
            ratio = new_median / old_median
        else:
            ratio = old_median / new_median
        delta = (ratio - 1.0) * 100.0
        marker = ""
        if ratio < 1.0 - threshold:
            if bench.get("kind", "micro") == "micro":
                regressions.append((name, delta))
                marker = "  << REGRESSION"
            else:
                marker = "  (advisory)"
        print(
            f"{name:<34}{old_median:>14.3f}{new_median:>14.3f}{delta:>+9.1f}%"
            f"  {bench['unit']}{marker}"
        )

    if regressions:
        print(f"\n{len(regressions)} microbenchmark(s) regressed more than "
              f"{threshold * 100:.0f}%:")
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1f}%")
        return 1
    print("\nno gating regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
