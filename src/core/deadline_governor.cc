#include "src/core/deadline_governor.h"

#include <algorithm>
#include <cstdio>

#include "src/hw/memory_model.h"
#include "src/kernel/kernel.h"

namespace dcs {

DeadlineGovernor::DeadlineGovernor(const DeadlineGovernorConfig& config) : config_(config) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "deadline-%.0f", config_.density_cap * 100.0);
  name_ = buf;
  if (config_.voltage_scaling) {
    name_ += "-vs";
  }
  last_chosen_step_ = config_.min_step;
}

std::optional<SpeedRequest> DeadlineGovernor::OnQuantum(const UtilizationSample& sample) {
  if (kernel_ == nullptr) {
    return std::nullopt;
  }
  const auto& pending = kernel_->PendingDeadlines();
  const SimTime now = sample.quantum_end;
  // Slacks shorter than one quantum cannot be reacted to any finer than a
  // quantum; flooring them avoids division blow-ups and requests the top
  // step for overdue work.
  const double min_slack = kernel_->quantum().ToSeconds();

  int chosen = config_.min_step;
  if (!pending.empty()) {
    chosen = config_.max_step;  // fallback when even the top step is too slow
    for (int step = config_.min_step; step <= config_.max_step; ++step) {
      double density = 0.0;
      for (const auto& item : pending) {
        const double slack =
            std::max((item.deadline - now).ToSeconds(), min_slack);
        const double rate = item.rates->Hz(step);
        density += item.remaining_cycles / rate / slack;
      }
      if (density <= config_.density_cap) {
        chosen = step;
        break;
      }
    }
  }
  last_chosen_step_ = chosen;

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
