// The interval clock scheduler: predictor + hysteresis thresholds +
// independent up/down speed policies + optional voltage scaling.
//
// At every 10 ms quantum boundary the kernel feeds the ended quantum's
// utilization to the predictor; if the weighted utilization rises above the
// scale-up threshold the up speed policy picks a faster step, if it falls
// below the scale-down threshold the down policy picks a slower one
// (hysteresis band in between: no change).  Pering et al. used 50%/70%; the
// paper's best policy is PAST with peg-peg and a 93%/98% band, optionally
// dropping the core rail to 1.23 V whenever the chosen step is slow enough.

#ifndef SRC_CORE_INTERVAL_GOVERNOR_H_
#define SRC_CORE_INTERVAL_GOVERNOR_H_

#include <memory>
#include <string>

#include "src/core/predictor.h"
#include "src/core/speed_policy.h"
#include "src/kernel/policy.h"
#include "src/obs/metrics.h"

namespace dcs {

// Hysteresis band on the *predicted* utilization.
struct Thresholds {
  double scale_down = 0.50;  // below this, slow the clock
  double scale_up = 0.70;    // above this, speed it up

  bool Valid() const { return scale_down <= scale_up; }
};

struct IntervalGovernorConfig {
  Thresholds thresholds;
  // Clamp range for chosen steps.
  int min_step = ClockTable::MinStep();
  int max_step = ClockTable::MaxStep();
  // When true, request the 1.23 V rail whenever the current step is at or
  // below voltage_scale_max_step, and 1.5 V otherwise (Table 2's "Voltage
  // Scaling @ 162.2 MHz" row).
  bool voltage_scaling = false;
  int voltage_scale_max_step = kMaxStepAtLowVoltage;
};

class IntervalGovernor final : public ClockPolicy {
 public:
  IntervalGovernor(std::unique_ptr<UtilizationPredictor> predictor,
                   std::unique_ptr<SpeedPolicy> up, std::unique_ptr<SpeedPolicy> down,
                   const IntervalGovernorConfig& config = {});

  const char* Name() const override { return name_.c_str(); }
  // Binds the governor.scale_ups / governor.scale_downs counters when the
  // hosting kernel has an observability registry attached.
  void OnInstall(Kernel& kernel) override;
  // Decisions are anchored on sample.step — the step the hardware actually
  // runs, not the one last requested — so a transition that failed under
  // fault injection simply re-enters the decision from reality next quantum;
  // an unsafe rail drop is refused by the hardware layer.
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override;
  // Counter instruments are not serialized: they live in the (separately
  // snapshotted) metrics registry and re-resolve through OnInstall.
  void Snapshot(SnapshotIo& io) override {
    predictor_->Snapshot(io);
    io.As<std::int64_t>(scale_ups_);
    io.As<std::int64_t>(scale_downs_);
  }

  // Introspection for tests and benches.
  double weighted_utilization() const { return predictor_->Current(); }
  const UtilizationPredictor& predictor() const { return *predictor_; }
  const IntervalGovernorConfig& config() const { return config_; }
  int scale_ups() const { return scale_ups_; }
  int scale_downs() const { return scale_downs_; }

 private:
  std::unique_ptr<UtilizationPredictor> predictor_;
  std::unique_ptr<SpeedPolicy> up_;
  std::unique_ptr<SpeedPolicy> down_;
  IntervalGovernorConfig config_;
  std::string name_;
  int scale_ups_ = 0;
  int scale_downs_ = 0;
  MetricsCounter* ctr_scale_ups_ = nullptr;
  MetricsCounter* ctr_scale_downs_ = nullptr;
};

}  // namespace dcs

#endif  // SRC_CORE_INTERVAL_GOVERNOR_H_
