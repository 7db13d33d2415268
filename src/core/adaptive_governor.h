// Online-learning interval governor: multiplicative weights over predictors.
//
// The paper's interval schedulers each commit to one prediction horizon —
// PAST reacts instantly but thrashes, AVG_N smooths but lags (the section
// 5.3 "cannot settle" failure), and no single N suits both an MPEG decode
// and a bursty server trace.  Instead of picking N per workload by hand,
// this governor runs a small pool of expert predictors (PAST, AVG_N and
// sliding windows at several horizons) side by side and learns which to
// trust with the classic multiplicative-weights update:
//
//     loss_i = |prediction_i - utilization|          (per quantum, in [0,1])
//     w_i   <- w_i * exp(-eta * loss_i),  then renormalize
//
// The speed decision uses the weight-mixed prediction as the demand
// estimate: required speed = mix * s_actual / target_utilization, with the
// same pegged-quantum saturation escape as the feedback governor (a pegged
// quantum censors demand for every expert at once), mapped to the slowest
// covering table step.  A weight floor keeps every expert live so the pool
// can re-adapt when the workload's phase changes.  Pure arithmetic over the
// sample stream — no RNG — so runs are deterministic and replayable.

#ifndef SRC_CORE_ADAPTIVE_GOVERNOR_H_
#define SRC_CORE_ADAPTIVE_GOVERNOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/predictor.h"
#include "src/hw/clock_table.h"
#include "src/kernel/policy.h"

namespace dcs {

struct AdaptiveGovernorConfig {
  // Multiplicative-weights learning rate.
  double eta = 2.0;
  // No expert's weight may fall below floor / pool_size (keeps dormant
  // experts recoverable after a workload phase change).
  double weight_floor = 0.02;
  // Utilization setpoint the mixed demand estimate is scaled against.
  double target_utilization = 0.85;
  // Pegged-quantum saturation escape (see FeedbackGovernor).
  double saturation_boost = 0.25;
  double saturation_threshold = 0.97;
  int min_step = ClockTable::MinStep();
  int max_step = ClockTable::MaxStep();
  // Drop the core rail to 1.23 V whenever the chosen step allows it.
  bool voltage_scaling = false;
};

class AdaptiveGovernor final : public ClockPolicy {
 public:
  explicit AdaptiveGovernor(const AdaptiveGovernorConfig& config = {});

  const char* Name() const override { return name_.c_str(); }
  void OnInstall(Kernel& /*kernel*/) override {}
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override;
  // Expert pool composition is ctor-fixed, so weights/predictions restore
  // positionally and each expert serializes its own history in order.
  void Snapshot(SnapshotIo& io) override {
    for (const auto& expert : experts_) {
      expert->Snapshot(io);
    }
    // One weight and one prediction per expert.
    io.Bytes(weights_.data(), weights_.size() * sizeof(double));
    io.Bytes(predictions_.data(), predictions_.size() * sizeof(double));
    io(mixed_);
  }

  // Introspection for tests: the experts' current weights.
  const std::vector<double>& weights() const { return weights_; }
  double mixed_prediction() const { return mixed_; }

 private:
  AdaptiveGovernorConfig config_;
  std::string name_;
  std::vector<std::unique_ptr<UtilizationPredictor>> experts_;
  std::vector<double> weights_;
  std::vector<double> predictions_;  // each expert's current prediction
  double mixed_ = 0.0;
};

}  // namespace dcs

#endif  // SRC_CORE_ADAPTIVE_GOVERNOR_H_
