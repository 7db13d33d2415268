// Machine-readable perf-report emitter for the hot-path benchmark harness.
//
// A harness run produces one JSON "run object": host metadata (CPU model,
// core count, compiler, build type), the harness configuration (repetitions,
// quick mode) and an ordered list of benchmark results.  Each result keeps
// every post-warmup sample alongside the median so later tooling can judge
// run-to-run noise, not just the summary.  The committed BENCH_dcs.json is a
// trajectory file: {"schema":"dcs-bench-trajectory/1","entries":[run, ...]}
// with one run object per recorded point (see scripts/bench_diff.py).

#ifndef BENCH_BENCH_REPORT_H_
#define BENCH_BENCH_REPORT_H_

#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dcs {

struct BenchResult {
  std::string name;  // e.g. "event_queue.push_pop_cancel"
  // "micro" results gate the regression check in scripts/bench_diff.py;
  // "e2e" wall-clock timings are advisory (they move with host load).
  std::string kind = "micro";
  std::string unit;  // e.g. "Mops/s", "Msamples/s", "ms"
  bool higher_is_better = true;
  double median = 0.0;
  std::vector<double> samples;  // post-warmup, in run order
};

class BenchReport {
 public:
  BenchReport(std::string label, int repetitions, bool quick);

  void Add(BenchResult result) { results_.push_back(std::move(result)); }

  // Adds a key to the run's host metadata, after the built-in ones (e.g.
  // which ISA variant a runtime-dispatched kernel ran).
  void AddHostField(std::string key, std::string value) {
    host_fields_.emplace_back(std::move(key), std::move(value));
  }

  // Renders the run object ("dcs-bench/1").  Deterministic field order;
  // numbers via std::to_chars shortest round-trip.
  void WriteJson(std::ostream& os) const;

  const std::vector<BenchResult>& results() const { return results_; }

 private:
  std::string label_;
  int repetitions_;
  bool quick_;
  std::vector<std::pair<std::string, std::string>> host_fields_;
  std::vector<BenchResult> results_;
};

// Median of `samples` (averages the middle pair for even sizes).
double Median(std::vector<double> samples);

}  // namespace dcs

#endif  // BENCH_BENCH_REPORT_H_
