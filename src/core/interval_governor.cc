#include "src/core/interval_governor.h"

#include <cassert>
#include <cstdio>
#include <utility>

#include "src/kernel/kernel.h"

namespace dcs {

IntervalGovernor::IntervalGovernor(std::unique_ptr<UtilizationPredictor> predictor,
                                   std::unique_ptr<SpeedPolicy> up,
                                   std::unique_ptr<SpeedPolicy> down,
                                   const IntervalGovernorConfig& config)
    : predictor_(std::move(predictor)), up_(std::move(up)), down_(std::move(down)),
      config_(config) {
  assert(predictor_ && up_ && down_);
  assert(config_.thresholds.Valid());
  char thresholds[64];
  std::snprintf(thresholds, sizeof(thresholds), "%.0f/%.0f",
                config_.thresholds.scale_down * 100.0, config_.thresholds.scale_up * 100.0);
  name_ = predictor_->Name() + "-" + up_->Name() + "-" + down_->Name() + "-" + thresholds;
  if (config_.voltage_scaling) {
    name_ += "-vs";
  }
}

void IntervalGovernor::OnInstall(Kernel& kernel) {
  MetricsRegistry* metrics = kernel.metrics();
  ctr_scale_ups_ = metrics != nullptr ? &metrics->Counter("governor.scale_ups") : nullptr;
  ctr_scale_downs_ = metrics != nullptr ? &metrics->Counter("governor.scale_downs") : nullptr;
}

std::optional<SpeedRequest> IntervalGovernor::OnQuantum(const UtilizationSample& sample) {
  const double weighted = predictor_->Update(sample.utilization);

  int step = sample.step;
  if (weighted > config_.thresholds.scale_up && step < config_.max_step) {
    step = up_->Next(step, ScaleDirection::kUp, config_.min_step, config_.max_step);
    ++scale_ups_;
    if (ctr_scale_ups_ != nullptr) {
      ctr_scale_ups_->Inc();
    }
  } else if (weighted < config_.thresholds.scale_down && step > config_.min_step) {
    step = down_->Next(step, ScaleDirection::kDown, config_.min_step, config_.max_step);
    ++scale_downs_;
    if (ctr_scale_downs_ != nullptr) {
      ctr_scale_downs_->Inc();
    }
  }

  SpeedRequest request;
  if (step != sample.step) {
    request.step = step;
  }
  if (config_.voltage_scaling) {
    const CoreVoltage wanted =
        step <= config_.voltage_scale_max_step ? CoreVoltage::kLow : CoreVoltage::kHigh;
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
