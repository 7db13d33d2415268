#include "src/core/cycle_count_governor.h"

#include <cassert>

namespace dcs {

CycleCountGovernor::CycleCountGovernor(int window, double headroom)
    : window_(window), headroom_(headroom),
      name_("cycles" + std::to_string(window)) {
  assert(window >= 1);
  assert(headroom > 0.0);
}

std::optional<SpeedRequest> CycleCountGovernor::OnQuantum(const UtilizationSample& sample) {
  busy_mhz_.push_back(sample.utilization * ClockTable::FrequencyMhz(sample.step));
  sum_ += busy_mhz_.back();
  if (static_cast<int>(busy_mhz_.size()) > window_) {
    sum_ -= busy_mhz_.front();
    busy_mhz_.pop_front();
  }
  const int step = ClockTable::StepForAtLeastMhz(AverageBusyMhz() * headroom_);
  if (step == sample.step) {
    return std::nullopt;
  }
  SpeedRequest request;
  request.step = step;
  return request;
}

double CycleCountGovernor::AverageBusyMhz() const {
  if (busy_mhz_.empty()) {
    return 0.0;
  }
  // The paper's example divides by the window size even before the window
  // has filled (the trace starts from a known state), but dividing by the
  // sample count is the sane general behaviour.
  return sum_ / static_cast<double>(busy_mhz_.size());
}

}  // namespace dcs
