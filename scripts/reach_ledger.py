#!/usr/bin/env python3
"""Reach ledger: which src/ functions no program calls and no test runs.

    python3 scripts/reach_ledger.py [--source DIR] [--work DIR] [--jobs N]

It builds the repository twice, each in its own build directory under
--work (default: build-ledger/ in the source tree), with the flags given on
the cmake command line, and prints two lists:

  reach     dcs:: functions defined in the src/ static libraries that none
            of the production binaries contains.  The binaries are every
            bench/ and examples/ target plus perfbench/dcs_bench.cc, built
            at -O0 -ffunction-sections and linked with -Wl,--gc-sections,
            so a function is kept only if something in the program calls
            it.  The universe is the `nm -C --defined-only` T/W symbols of
            the libraries.
  coverage  functions in src/ that the tier-1 suite never runs.  The build
            is -O1 --coverage.  After `ctest`, gcov's JSON is aggregated over
            every translation unit: a function counts as run when any unit
            ran its own copy or any of its lines, so a header function
            inlined into a test still counts.

Each list is diffed against scripts/reach_allowlist.json, which gives a
one-line reason per entry.  The script exits 1 when either list holds an
entry the allowlist does not, and names allowlisted entries that no longer
appear, so the allowlist can shrink with the code.  It also prints the
line coverage of each src/ directory.
"""

import argparse
import collections
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALLOWLIST = os.path.join(HERE, "reach_allowlist.json")

REACH_FLAGS = ["-DCMAKE_BUILD_TYPE=Debug",
               "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections",
               "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]
COVERAGE_FLAGS = ["-DCMAKE_BUILD_TYPE=Debug",
                  "-DCMAKE_CXX_FLAGS_DEBUG=-O1 --coverage",
                  "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]


def run(cmd, **kwargs):
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, **kwargs)


def configure(source, build, flags):
    run(["cmake", "-S", source, "-B", build] + flags, stdout=subprocess.DEVNULL)


def defined_symbols(path, kinds):
    """Demangled dcs:: symbols of `path` whose nm type is in `kinds`."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    symbols = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in kinds and parts[2].startswith("dcs::"):
            symbols.add(parts[2])
    return symbols


def production_reach(source, work, jobs):
    """(unreached symbols, universe size, binary count)."""
    build = os.path.join(work, "reach")
    configure(source, build, REACH_FLAGS)
    # Every target under bench/ and examples/: the Makefile generator builds
    # a directory's targets (and the libraries they link) from its subdir.
    for sub in ("bench", "examples"):
        run(["make", "-C", os.path.join(build, sub), "-j", str(jobs)], stdout=subprocess.DEVNULL)
    binaries = []
    for sub in ("bench", "examples"):
        for path in sorted(glob.glob(os.path.join(build, sub, "*"))):
            if os.path.isfile(path) and os.access(path, os.X_OK):
                binaries.append(path)
    libs = sorted(glob.glob(os.path.join(build, "src", "*", "*.a")))
    # perfbench's harness links the same libraries; build it against them.
    dcs_bench = os.path.join(build, "dcs_bench")
    run(["g++", "-std=c++20", "-O0", "-ffunction-sections", "-I", source,
         '-DDCS_BENCH_BUILD_TYPE="Debug"', os.path.join(source, "perfbench", "dcs_bench.cc"),
         "-o", dcs_bench, "-Wl,--gc-sections", "-Wl,--start-group"] + libs +
        ["-Wl,--end-group", "-pthread"])
    binaries.append(dcs_bench)

    universe = set()
    for lib in libs:
        universe |= defined_symbols(lib, {"T", "W"})
    reached = set()
    for binary in binaries:
        reached |= defined_symbols(binary, {"T", "t", "W", "w"})
    return sorted(universe - reached), len(universe), len(binaries)


def gcov_documents(gcno_files, cwd):
    """gcov's JSON documents for `gcno_files`, one per translation unit.  A
    unit no test binary ran has no .gcda; gcov then reads all its counts as
    zero, so its functions still count."""
    docs = []
    for start in range(0, len(gcno_files), 64):
        out = subprocess.run(["gcov", "--json-format", "--stdout"] + gcno_files[start:start + 64],
                             check=True, capture_output=True, text=True, cwd=cwd).stdout
        decoder = json.JSONDecoder()
        pos = 0
        while pos < len(out):
            while pos < len(out) and out[pos].isspace():
                pos += 1
            if pos == len(out):
                break
            doc, pos = decoder.raw_decode(out, pos)
            docs.append(doc)
    return docs


def tier1_coverage(source, work, jobs):
    """(never-run functions, function count, {directory: (run lines, lines)})."""
    build = os.path.join(work, "coverage")
    configure(source, build, COVERAGE_FLAGS)
    for stale in glob.glob(os.path.join(build, "**", "*.gcda"), recursive=True):
        os.remove(stale)
    run(["cmake", "--build", build, "-j", str(jobs)], stdout=subprocess.DEVNULL)
    run(["ctest", "--test-dir", build, "-j", str(jobs), "--output-on-failure"],
        stdout=subprocess.DEVNULL)

    src = os.path.join(os.path.realpath(source), "src") + os.sep
    functions = {}  # (file, start line, name) -> [end line, ran in any unit]
    lines = {}      # (file, line) -> ran in any unit
    gcno = sorted(glob.glob(os.path.join(build, "**", "*.gcno"), recursive=True))
    for doc in gcov_documents(gcno, build):
        for f in doc["files"]:
            path = os.path.realpath(os.path.join(doc.get("current_working_directory", ""),
                                                 f["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, source)
            for fn in f["functions"]:
                entry = functions.setdefault((rel, fn["start_line"], fn["demangled_name"]),
                                             [fn["end_line"], False])
                entry[1] = entry[1] or fn["execution_count"] > 0
            for ln in f["lines"]:
                key = (rel, ln["line_number"])
                lines[key] = lines.get(key, False) or ln["count"] > 0
    never = sorted({f"{file}: {name}" for (file, start, name), (end, ran) in functions.items()
                    if not ran and not any(lines.get((file, n)) for n in range(start, end + 1))})
    per_dir = collections.defaultdict(lambda: [0, 0])
    for (file, _), ran in lines.items():
        d = os.path.dirname(file)
        per_dir[d][0] += ran
        per_dir[d][1] += 1
    return never, len(functions), dict(per_dir)


def diff(title, found, allowed):
    """Prints `found` against the allowlist; returns the unlisted entries."""
    unlisted = [e for e in found if e not in allowed]
    stale = sorted(set(allowed) - set(found))
    print(f"\n{title}: {len(found)} ({len(found) - len(unlisted)} allowlisted, "
          f"{len(unlisted)} not)")
    for entry in found:
        print(f"  {'  ' if entry in allowed else '! '}{entry}")
        if entry in allowed:
            print(f"      {allowed[entry]}")
    for entry in stale:
        print(f"  allowlisted but no longer listed (remove it): {entry}")
    return unlisted


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--source", default=ROOT, help="repository checkout to audit")
    parser.add_argument("--work", default=None, help="build directory root")
    parser.add_argument("--jobs", type=int, default=max(1, min(4, len(os.sched_getaffinity(0)))))
    args = parser.parse_args()
    source = os.path.abspath(args.source)
    work = os.path.abspath(args.work or os.path.join(source, "build-ledger"))

    with open(ALLOWLIST) as f:
        allow = json.load(f)

    unreached, universe, binaries = production_reach(source, work, args.jobs)
    never, functions, per_dir = tier1_coverage(source, work, args.jobs)

    print(f"production reach: {len(unreached)} of {universe} dcs:: symbols in the src/ "
          f"libraries appear in none of {binaries} binaries")
    print(f"tier-1 coverage: {len(never)} of {functions} src/ functions never run")
    print("line coverage by directory:")
    for d in sorted(per_dir):
        ran, total = per_dir[d]
        print(f"  {d:<16} {ran / total:.3f}  ({ran}/{total})")

    bad = diff("unreached by production", unreached, allow["reach"])
    bad += diff("never run by tier-1", never, allow["coverage"])
    if bad:
        print(f"\nFAIL: {len(bad)} entries are not in {os.path.relpath(ALLOWLIST, ROOT)}: "
              "call them from a program, run them from a test, delete them, "
              "or allowlist them with a reason")
        return 1
    print("\nOK: every entry is allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
