#!/usr/bin/env python3
"""Builds the benchmark harness, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a full checkout: it builds perfbench/ as its own
CMake project over src/ (into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench) and runs .bench_build/perfbench/dcs_bench.  Lines
before the last name every metric with its unit, the run manifest and the
output checks.  The last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0 and the
per-layer ones with --trace 1.  perfbench/README.md explains each metric.

    python3 perfbench/run.py --update-reference

re-records perfbench/reference_digests.json, the per-job digests for the
default seed that every run with that seed is compared against.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference_digests.json")
WORKLOADS = ("paper_sweep", "fleet_clone", "server_openloop")
DEFAULT_SEED = 1
HARNESS_TIMEOUT_S = 170

# The contract's grammar for metric names and units.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# A percentile is reported only when at least this many samples lie beyond
# it, so one outlier cannot become the reported tail.
MIN_SAMPLES_BEYOND = 10
# The fewest samples that give the p90 MIN_SAMPLES_BEYOND samples beyond it.
P90_SAMPLES = 100

# How steeply each workload's host time rises with the host probe's, in log
# terms: a job's time goes as probe_ms ** sensitivity.  When the shared host
# slows down, the fleets slow down more than the probe and the DAQ-bound
# sweeps as much; each value is the exponent that made the corrected
# throughput steadiest over two sets of eight runs (perfbench/README.md).
HOST_SENSITIVITY = {"paper_sweep": 1.0, "fleet_clone": 1.5, "server_openloop": 1.0}


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return UNIT_RE.fullmatch(unit) is not None


def tail_percentile(values, q):
    """Nearest-rank q-quantile of `values`.

    Raises ValueError unless at least MIN_SAMPLES_BEYOND samples rank above
    the reported one."""
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; have {n} samples"
        )
    return sorted(values)[rank - 1]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not (valid_name(m["name"]) and valid_unit(m["unit"])):
            fail(f"BENCHMARK.json: metric {m['name']!r} or its unit {m['unit']!r} "
                 "breaks the grammar")
    return bench["end_to_end"], bench["per_layer"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


# --- Building and running the harness -----------------------------------------


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ is missing next to perfbench/: run from a full checkout of the repository")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "dcs_bench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("building the harness failed: " + " ".join(cmd))
    return os.path.join(build_dir, "dcs_bench")


def run_harness(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {HARNESS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with {proc.returncode}")
    return json.loads(lines[-1])


# --- Metrics ---------------------------------------------------------------------


def middle(values, k):
    """The k values nearest the middle of `values` in sorted order."""
    ordered = sorted(values)
    low = max(0, (len(ordered) - k) // 2)
    return ordered[low:low + k]


def speed_factor(raw, probe_ms):
    """What a time taken right after a host probe of `probe_ms` is divided
    by to give the time on a host where the probe takes exactly 1 ms."""
    return probe_ms ** HOST_SENSITIVITY[raw["workload"]]


def corrected_job_ms(raw):
    """Per job, its host times (ms) over the passes that completed it, each
    corrected to host speed by the host probe run just before it.

    Other tenants of a shared host slow it down in phases of seconds to
    minutes, often longer than a whole run; the probe slows down with them,
    and so does the correction."""
    passes = raw["passes"]
    return [[p["job_ms"][j] / speed_factor(raw, p["host_probe_ms"][j])
             for p in passes if p["job_ms"][j] >= 0]
            for j in range(len(passes[0]["job_ms"]))]


def job_samples(raw):
    """Each job's k corrected times nearest its median, k being the fewest
    that leave the p90 MIN_SAMPLES_BEYOND samples beyond it."""
    jobs = corrected_job_ms(raw)
    k = math.ceil(P90_SAMPLES / len(jobs))
    return [t for times in jobs for t in middle(times, k)]


def end_to_end(raw, failed):
    # Throughput divides one pass's simulated output by the sum of each job's
    # median corrected host time.
    passes = raw["passes"]
    host_s = sim_s = devices = 0.0
    for j, times in enumerate(corrected_job_ms(raw)):
        if times:
            done = next(p for p in passes if p["job_ms"][j] >= 0)
            host_s += statistics.median(times) / 1e3
            sim_s += done["job_sim_s"][j]
            devices += done["job_devices"][j]
    job_ms = job_samples(raw)
    return {
        "sim_s_per_host_s": sim_s / host_s,
        "devices_per_s": devices / host_s,
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_p90": tail_percentile(job_ms, 0.9),
        "setup_s": statistics.median(
            s / speed_factor(raw, p) for s, p in zip(raw["setup_s"], raw["setup_host_probe_ms"])),
        "peak_rss_mib": raw["peak_rss_mib"],
        "ok_frac": 1.0 - failed / raw["attempted"],
    }


def uncorrected(raw):
    """The timings as the clock read them, for the log: the sum of each
    job's median host time, the median set-up and the median host probe."""
    passes = raw["passes"]
    jobs = [[p["job_ms"][j] for p in passes if p["job_ms"][j] >= 0]
            for j in range(len(passes[0]["job_ms"]))]
    host_s = sum(statistics.median(times) for times in jobs if times) / 1e3
    return {
        "host_s_per_pass": (host_s, "s"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "host_probe_ms": (statistics.median(t for p in passes for t in p["host_probe_ms"]), "ms"),
    }


def layer_values(t):
    """Per-layer metrics of one traced pass."""
    return {
        "daq.sample_s": t["daq_s"],
        "daq.samples": t["daq_samples"],
        "daq.ns_per_sample": t["daq_s"] / t["daq_samples"] * 1e9,
        "sim.events": t["events"],
        "sim.events_cancelled": t["cancelled"],
        "sim.cancel_ratio": t["cancelled"] / (t["events"] + t["cancelled"]),
        "sim.host_ns_per_event": t["run_s"] / t["events"] * 1e9,
        "kernel.quanta": t["quanta"],
        "kernel.self_s": t["run_s"] - t["governor_s"] - t["next_s"],
        "core.governor_s": t["governor_s"],
        "core.decisions": t["decisions"],
        "core.ns_per_decision": t["governor_s"] / t["decisions"] * 1e9,
        "core.changes_per_decision": t["changes"] / t["decisions"],
        "workload.next_s": t["next_s"],
        "workload.next_calls": t["next_calls"],
        "workload.requests": t["requests"],
        "workload.rejected": t["rejected"],
        "workload.shed": t["shed"],
        "exp.device.build_s": t["build_s"],
        "exp.device.run_s": t["run_s"],
        "exp.device.finish_s": t["finish_s"],
        "exp.fleet.warmup_s": t["warmup_s"],
        "exp.fleet.restore_us": t["restore_s"] / t["restores"] * 1e6,
        "exp.fleet.image_bytes": t["image_bytes"] / t["images"],
        "exp.fleet.fold_s": t["fold_s"],
        "hw.tape_segments": t["tape_segments"],
        "exp.sweep.worker_busy_frac": t["busy_s"] / (t["threads"] * t["wall_s"]),
    }


def per_layer(raw):
    passes = [layer_values(t) for t in raw["traced"]]
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def shares(raw):
    """Median share of device time per layer over the traced passes."""
    parts = {
        "daq": lambda t: t["daq_s"],
        "governor": lambda t: t["governor_s"],
        "workload": lambda t: t["next_s"],
        "kernel+sim+hw": lambda t: t["run_s"] - t["governor_s"] - t["next_s"],
        "build": lambda t: t["build_s"],
        "finish": lambda t: t["finish_s"],
        "restore": lambda t: t["restore_s"],
    }
    return {name: statistics.median(f(t) / t["device_s"] for t in raw["traced"])
            for name, f in parts.items()}


def tracing_overhead(raw):
    """Traced pass time without its probes, over the untraced pass time."""
    traced = statistics.median(t["wall_s"] - t["probe_s"] for t in raw["traced"])
    untraced = statistics.median(p["wall_s"] for p in raw["passes"])
    return traced / untraced - 1.0


# --- Output checks -------------------------------------------------------------------


def workload_digest(job_digests):
    return hashlib.sha256(",".join(job_digests).encode()).hexdigest()[:16]


def reference_mismatches(raw):
    """Jobs whose digest differs from the stored reference, and a note.

    Only the default seed has a reference, and only a build with the same
    platform fingerprint (compiler and libm) can reproduce it bit for bit."""
    if raw["seed"] != DEFAULT_SEED:
        return 0, f"seed {raw['seed']} has no stored reference; checked for self-consistency"
    try:
        with open(REFERENCE) as f:
            ref = json.load(f)
    except FileNotFoundError:
        return 0, "no stored reference"
    entry = ref["workloads"].get(raw["workload"])
    if entry is None:
        return 0, "no stored reference for this workload"
    if ref["platform"] != raw["platform"]:
        return 0, "platform fingerprint differs from the reference's: bit-exact comparison skipped"
    got, want = raw["job_digests"], entry["jobs"]
    mismatched = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
    if mismatched == 0:
        return 0, f"matches the reference {entry['digest']}"
    return mismatched, f"{mismatched} job(s) differ from the reference {entry['digest']}"


def manifest(raw, seconds):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "seed": raw["seed"],
        "seconds": seconds,
        "workload": raw["workload"],
        "threads": raw["threads"],
    }


def report(raw, args):
    # A job that differs from the reference differs in every pass that ran it.
    mismatched, note = reference_mismatches(raw)
    failed = raw["failed"] + mismatched * (len(raw["passes"]) + len(raw["traced"]))
    attempted = raw["attempted"]

    end_to_end_decl, per_layer_decl = declared_metrics()
    declared = per_layer_decl if args.trace else end_to_end_decl
    values = per_layer(raw) if args.trace else end_to_end(raw, failed)
    if set(values) != {m["name"] for m in declared}:
        fail("computed metrics do not match BENCHMARK.json")

    print("manifest " + json.dumps(manifest(raw, args.seconds)))
    print(f"samples passes={len(raw['passes'])} traced_passes={len(raw['traced'])} "
          f"jobs={len(job_samples(raw))} setups={len(raw['setup_s'])}")
    print(f"digest {raw['workload']} {workload_digest(raw['job_digests'])} ({note})")
    for error in raw["errors"]:
        print(f"error {error}")
    for name, (value, unit) in uncorrected(raw).items():
        print(f"uncorrected {name} {value:.6g} {unit}")
    if args.trace:
        for name, share in shares(raw).items():
            print(f"share {name} {share:.4f}")
        print(f"tracing_overhead {tracing_overhead(raw):.4f}")
    for m in declared:
        print(f"metric {m['name']} {values[m['name']]:.6g} {m['unit']}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


def update_reference(binary):
    ref = {"seed": DEFAULT_SEED, "platform": None, "workloads": {}}
    for workload in WORKLOADS:
        raw = run_harness(binary, workload, DEFAULT_SEED, 1, 0)
        if raw["failed"]:
            fail(f"{workload}: {raw['failed']} job(s) failed; reference not written")
        ref["platform"] = raw["platform"]
        ref["workloads"][workload] = {
            "digest": workload_digest(raw["job_digests"]),
            "jobs": raw["job_digests"],
        }
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.update_reference:
        update_reference(binary)
        return
    if args.workload is None:
        parser.error("--workload is required")
    report(run_harness(binary, args.workload, args.seed, args.seconds, args.trace), args)


if __name__ == "__main__":
    main()
