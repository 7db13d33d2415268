#include "src/core/modern_governors.h"

#include <algorithm>

namespace dcs {

OndemandGovernor::OndemandGovernor(const OndemandConfig& config)
    : config_(config), name_("ondemand") {}

std::optional<SpeedRequest> OndemandGovernor::OnQuantum(const UtilizationSample& sample) {
  max_util_in_window_ = std::max(max_util_in_window_, sample.utilization);
  if (++quanta_since_decision_ < config_.sampling_quanta) {
    return std::nullopt;
  }
  const double util = max_util_in_window_;
  quanta_since_decision_ = 0;
  max_util_in_window_ = 0.0;

  int step;
  if (util > config_.up_threshold) {
    // Signature ondemand behaviour: burst straight to the top.
    step = config_.max_step;
  } else {
    const double target_mhz =
        ClockTable::FrequencyMhz(sample.step) * util / config_.up_threshold;
    step = std::clamp(ClockTable::StepForAtLeastMhz(target_mhz), config_.min_step,
                      config_.max_step);
  }
  if (step == sample.step) {
    return std::nullopt;
  }
  SpeedRequest request;
  request.step = step;
  return request;
}

SchedutilGovernor::SchedutilGovernor(const SchedutilConfig& config)
    : config_(config), name_("schedutil") {}

std::optional<SpeedRequest> SchedutilGovernor::OnQuantum(const UtilizationSample& sample) {
  // Scale utilization by current capacity so it is comparable across steps
  // (utilization of 1.0 at 59 MHz is ~0.29 of max capacity).
  const double capacity =
      ClockTable::FrequencyMhz(sample.step) / ClockTable::FrequencyMhz(config_.max_step);
  const double raw = sample.utilization * capacity;
  scaled_util_ = config_.smoothing * scaled_util_ + (1.0 - config_.smoothing) * raw;

  ++quanta_since_change_;
  if (quanta_since_change_ < config_.rate_limit_quanta) {
    return std::nullopt;
  }
  const double target_mhz =
      config_.headroom * scaled_util_ * ClockTable::FrequencyMhz(config_.max_step);
  const int step = std::clamp(ClockTable::StepForAtLeastMhz(target_mhz), config_.min_step,
                              config_.max_step);
  if (step == sample.step) {
    return std::nullopt;
  }
  quanta_since_change_ = 0;
  SpeedRequest request;
  request.step = step;
  return request;
}

}  // namespace dcs
