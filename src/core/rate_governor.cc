#include "src/core/rate_governor.h"

#include <algorithm>
#include <cassert>

namespace dcs {

SaturationAwareGovernor::SaturationAwareGovernor(const RateGovernorConfig& config)
    : config_(config), name_("satrate" + std::to_string(config.window)) {
  assert(config_.window >= 1);
  assert(config_.headroom > 0.0);
}

std::optional<SpeedRequest> SaturationAwareGovernor::OnQuantum(
    const UtilizationSample& sample) {
  int step;
  if (sample.utilization >= config_.saturation_threshold) {
    // Demand is at least the full current rate — the average would
    // under-report it (Figure 5's ceiling).  Escape upward and flush the
    // window so stale slow-clock samples cannot drag the estimate down.
    step = std::min(sample.step + config_.escape_steps, config_.max_step);
    busy_mhz_.clear();
    sum_ = 0.0;
  } else {
    busy_mhz_.push_back(sample.utilization * ClockTable::FrequencyMhz(sample.step));
    sum_ += busy_mhz_.back();
    if (static_cast<int>(busy_mhz_.size()) > config_.window) {
      sum_ -= busy_mhz_.front();
      busy_mhz_.pop_front();
    }
    step = std::clamp(ClockTable::StepForAtLeastMhz(AverageBusyMhz() * config_.headroom),
                      config_.min_step, config_.max_step);
  }
  if (step == sample.step) {
    return std::nullopt;
  }
  SpeedRequest request;
  request.step = step;
  return request;
}

double SaturationAwareGovernor::AverageBusyMhz() const {
  if (busy_mhz_.empty()) {
    return 0.0;
  }
  return sum_ / static_cast<double>(busy_mhz_.size());
}

}  // namespace dcs
