#include "src/core/adaptive_governor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/hw/voltage_regulator.h"

namespace dcs {

AdaptiveGovernor::AdaptiveGovernor(const AdaptiveGovernorConfig& config) : config_(config) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "adaptive-%.1f", config_.eta);
  name_ = buf;
  if (config_.voltage_scaling) {
    name_ += "-vs";
  }
  // Horizons spanning instant reaction to heavy smoothing; the learner's job
  // is to move weight to whichever matches the workload's current phase.
  experts_.push_back(std::make_unique<PastPredictor>());
  experts_.push_back(std::make_unique<AvgNPredictor>(2));
  experts_.push_back(std::make_unique<AvgNPredictor>(6));
  experts_.push_back(std::make_unique<AvgNPredictor>(12));
  experts_.push_back(std::make_unique<SlidingWindowPredictor>(4));
  experts_.push_back(std::make_unique<SlidingWindowPredictor>(16));
  weights_.assign(experts_.size(), 1.0 / static_cast<double>(experts_.size()));
  predictions_.assign(experts_.size(), 0.0);
}

std::optional<SpeedRequest> AdaptiveGovernor::OnQuantum(const UtilizationSample& sample) {
  const double u = std::clamp(sample.utilization, 0.0, 1.0);

  // Score each expert's standing prediction against what actually happened,
  // then fold the sample in for the next round.
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < experts_.size(); ++i) {
    const double loss = std::abs(predictions_[i] - u);
    weights_[i] *= std::exp(-config_.eta * loss);
    weight_sum += weights_[i];
  }
  const double floor = config_.weight_floor / static_cast<double>(experts_.size());
  weight_sum = 0.0;
  for (double& w : weights_) {
    // Renormalization happens through weight_sum below; the floor is applied
    // to the raw weights so a long losing streak cannot underflow an expert
    // out of the pool.
    w = std::max(w, floor);
    weight_sum += w;
  }
  mixed_ = 0.0;
  for (std::size_t i = 0; i < experts_.size(); ++i) {
    weights_[i] /= weight_sum;
    predictions_[i] = std::clamp(experts_[i]->Update(u), 0.0, 1.0);
    mixed_ += weights_[i] * predictions_[i];
  }

  // Demand estimate from the mixed prediction, with the same saturation
  // escape as the feedback governor (a pegged quantum censors demand).
  const double top_mhz = ClockTable::FrequencyMhz(config_.max_step);
  const double actual =
      ClockTable::FrequencyMhz(std::clamp(sample.step, config_.min_step, config_.max_step)) /
      top_mhz;
  double required = mixed_ * actual / config_.target_utilization;
  if (u >= config_.saturation_threshold) {
    required = std::max(required, actual * (1.0 + config_.saturation_boost));
  }
  required = std::clamp(required, 0.0, 1.0);

  const int chosen = std::clamp(ClockTable::StepForAtLeastMhz(required * top_mhz),
                                config_.min_step, config_.max_step);

  SpeedRequest request;
  if (chosen != sample.step) {
    request.step = chosen;
  }
  if (config_.voltage_scaling) {
    const CoreVoltage wanted =
        chosen <= kMaxStepAtLowVoltage ? CoreVoltage::kLow : CoreVoltage::kHigh;
    if (wanted != sample.voltage) {
      request.voltage = wanted;
    }
  }
  if (request.Empty()) {
    return std::nullopt;
  }
  return request;
}

}  // namespace dcs
