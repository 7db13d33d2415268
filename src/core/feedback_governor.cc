#include "src/core/feedback_governor.h"

#include <algorithm>
#include <cstdio>

#include "src/hw/memory_model.h"
#include "src/kernel/kernel.h"

namespace dcs {

FeedbackGovernor::FeedbackGovernor(const FeedbackGovernorConfig& config) : config_(config) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "pid-%.2f-%.2f-%.2f", config_.kp, config_.ki, config_.kd);
  name_ = buf;
  if (config_.voltage_scaling) {
    name_ += "-vs";
  }
}

double FeedbackGovernor::DeadlineSpeed(const UtilizationSample& sample) const {
  if (kernel_ == nullptr) {
    return 0.0;
  }
  const auto& pending = kernel_->PendingDeadlines();
  if (pending.empty()) {
    return 0.0;
  }
  const SimTime now = sample.quantum_end;
  // Same floor as the deadline governor: slacks shorter than a quantum
  // cannot be reacted to any finer and would blow up the density.
  const double min_slack = kernel_->quantum().ToSeconds();
  double density = 0.0;
  for (const auto& item : pending) {
    const double slack = std::max((item.deadline - now).ToSeconds(), min_slack);
    const double rate = item.rates->Hz(config_.max_step);
    density += item.remaining_cycles / rate / slack;
  }
  return density / config_.density_target;
}

std::optional<SpeedRequest> FeedbackGovernor::OnQuantum(const UtilizationSample& sample) {
  const double top_mhz = ClockTable::FrequencyMhz(config_.max_step);
  const double floor_speed = ClockTable::FrequencyMhz(config_.min_step) / top_mhz;
  // Base the loop on the hardware's real speed: a transition stuck by fault
  // injection shows up as error next quantum instead of compounding.
  const double actual =
      ClockTable::FrequencyMhz(std::clamp(sample.step, config_.min_step, config_.max_step)) /
      top_mhz;

  // Utilization observer with saturation escape.
  double required = sample.utilization * actual / config_.target_utilization;
  if (sample.utilization >= config_.saturation_threshold) {
    required = std::max(required, actual * (1.0 + config_.saturation_boost));
  }
  // Deadline observer.
  required = std::max(required, DeadlineSpeed(sample));
  required = std::clamp(required, 0.0, 1.0);

  const double error = required - actual;
  // Anti-windup by clamping: while the command sits at a range limit and the
  // error keeps pushing into it, hold it there instead of re-running the
  // update.  Dropping only the ki term is not enough — once the hardware
  // follows the command down to the floor, the error shrinks and the
  // kp/kd terms kick the command back up, producing a two-step limit cycle
  // at idle (one clock change per quantum for nothing).
  const bool windup = (pinned_high_ && error > 0.0) || (pinned_low_ && error < 0.0);
  double command;
  if (windup) {
    command = pinned_high_ ? 1.0 : floor_speed;
  } else {
    command = actual + config_.kp * (error - error1_) + config_.ki * error +
              config_.kd * (error - 2.0 * error1_ + error2_);
  }
  error2_ = error1_;
  error1_ = error;

  pinned_high_ = command >= 1.0;
  pinned_low_ = command <= floor_speed;
  command = std::clamp(command, floor_speed, 1.0);
  last_command_ = command;

  // Slowest table step at least as fast as the command.
  const int chosen = std::clamp(ClockTable::StepForAtLeastMhz(command * top_mhz),
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
