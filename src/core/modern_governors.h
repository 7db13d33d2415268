// Modern Linux cpufreq governors as extension baselines.
//
// The paper predates cpufreq, but its PAST/AVG_N interval schedulers are the
// direct ancestors of Linux's `ondemand` and `schedutil` governors.  We
// implement faithful simplifications of both so the benches can ask: would
// today's heuristics have fared better on the Itsy?
//
//   * OndemandGovernor — samples every `sampling_quanta`; if utilization
//     exceeds up_threshold it pegs to the maximum step (ondemand's signature
//     move), otherwise it picks the slowest frequency that would keep
//     utilization at up_threshold, i.e. f_next = f_cur * util / up_threshold.
//   * SchedutilGovernor — tracks per-quantum utilization scaled to current
//     capacity and applies util-clamping with the kernel's 1.25 headroom:
//     f_next = 1.25 * util_scaled * f_max, rate-limited.
//
// Both map continuous targets onto the SA-1100's 11 discrete steps with
// "lowest step that covers the target" semantics.

#ifndef SRC_CORE_MODERN_GOVERNORS_H_
#define SRC_CORE_MODERN_GOVERNORS_H_

#include <string>

#include "src/hw/clock_table.h"
#include "src/kernel/policy.h"

namespace dcs {

struct OndemandConfig {
  double up_threshold = 0.80;
  // Decisions are made every this many quanta (ondemand's sampling_rate).
  int sampling_quanta = 1;
  int min_step = ClockTable::MinStep();
  int max_step = ClockTable::MaxStep();
};

class OndemandGovernor final : public ClockPolicy {
 public:
  explicit OndemandGovernor(const OndemandConfig& config = {});

  const char* Name() const override { return name_.c_str(); }
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override;
  void Snapshot(SnapshotIo& io) override {
    io.As<std::int64_t>(quanta_since_decision_);
    io(max_util_in_window_);
  }

 private:
  OndemandConfig config_;
  std::string name_;
  int quanta_since_decision_ = 0;
  double max_util_in_window_ = 0.0;
};

struct SchedutilConfig {
  // The kernel's "map util to 80% of capacity" headroom factor.
  double headroom = 1.25;
  // Minimum quanta between frequency increases/decreases (rate limit).
  int rate_limit_quanta = 1;
  // PELT-like exponential smoothing applied to raw utilization (0 = none).
  double smoothing = 0.5;
  int min_step = ClockTable::MinStep();
  int max_step = ClockTable::MaxStep();
};

class SchedutilGovernor final : public ClockPolicy {
 public:
  explicit SchedutilGovernor(const SchedutilConfig& config = {});

  const char* Name() const override { return name_.c_str(); }
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override;
  void Snapshot(SnapshotIo& io) override {
    io(scaled_util_);
    io.As<std::int64_t>(quanta_since_change_);
  }

  // Smoothed capacity-scaled utilization (fraction of f_max in use).
  double scaled_utilization() const { return scaled_util_; }

 private:
  SchedutilConfig config_;
  std::string name_;
  double scaled_util_ = 0.0;
  int quanta_since_change_ = 0;
};

}  // namespace dcs

#endif  // SRC_CORE_MODERN_GOVERNORS_H_
