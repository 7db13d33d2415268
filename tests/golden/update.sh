#!/bin/sh
# Regenerates the golden stdout captures checked by
# tests/integration/golden_test.cc.
#
# Usage:  tests/golden/update.sh [BUILD_DIR]     (default: build)
#
# Run it from the repository root after an intentional output change, then
# review the diff like any other code change:
#
#   cmake --build build -j
#   tests/golden/update.sh build
#   git diff tests/golden/
#
# The benches write progress to stderr only, and every number in their stdout
# derives from simulated state, so the captures are byte-identical for any
# --threads value (golden_test.cc re-runs them with --threads=2 to prove it).
#
# Perf PRs: goldens are the spec.  A change that only optimises the hot path
# (vectorised sampling, dispatch mechanics, allocators) must leave every file
# in this directory byte-identical — running this script must produce an
# empty `git diff tests/golden/`.  If an "optimisation" changes a golden, it
# changed observable behaviour: fix the optimisation, do not regenerate.
set -eu

build_dir="${1:-build}"
golden_dir="$(cd "$(dirname "$0")" && pwd)"

# Every paper bench.  Only the sweep-driven ones take --threads; the others
# take no flags and refuse any, so they run without arguments.
for bench in tab1_avg9_actions tab2_energy_summary fig9_utilization_vs_freq \
             fig8_best_policy_trace server_slo competitive_ratio \
             fig3_utilization_10ms fig4_utilization_100ms fig5_simple_averaging \
             fig6_fourier fig7_avg3_oscillation tab3_memory_latency \
             switch_overhead battery_lifetime \
             ablation_memory_model ablation_quantum ablation_spin_loop \
             ablation_switch_cost \
             govil_policies martin_bound oracle_bounds pering_elastic \
             modern_governors deadline_governor deadline_sensitivity sweep_avgn; do
  binary="$build_dir/bench/$bench"
  if [ ! -x "$binary" ]; then
    echo "error: $binary not built (run: cmake --build $build_dir -j)" >&2
    exit 1
  fi
  args=""
  case "$bench" in
    server_slo|competitive_ratio) args="--threads=1 --quick" ;;
    tab2_energy_summary|fig9_utilization_vs_freq|fig8_best_policy_trace) args="--threads=1" ;;
    deadline_sensitivity|sweep_avgn) args="--threads=1" ;;
  esac
  echo "regenerating $bench.txt" >&2
  "$binary" $args > "$golden_dir/$bench.txt"
done

# Observability artifacts: commit the metrics JSON verbatim; the Chrome
# traces are large, so only their digests go into obs_artifacts.sha256.
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT
: > "$golden_dir/obs_artifacts.sha256"
regen_artifacts() {
  bench="$1"
  artifact="$2"
  shift 2
  echo "regenerating $artifact artifacts" >&2
  "$build_dir/bench/$bench" --threads=1 "$@" \
      --trace-out="$tmp_dir/$artifact.trace.json" \
      --metrics-out="$golden_dir/$artifact.metrics.json" > /dev/null
  (cd "$tmp_dir" && sha256sum "$artifact.trace.json") >> "$golden_dir/obs_artifacts.sha256"
}
regen_artifacts fig8_best_policy_trace fig8_past_peg_peg
regen_artifacts tab2_energy_summary tab2_energy_summary
regen_artifacts server_slo server_slo_quick --quick
echo "done — review with: git diff tests/golden/" >&2
