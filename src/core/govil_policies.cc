#include "src/core/govil_policies.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace dcs {
namespace {

double Clamp01(double u) { return std::clamp(u, 0.0, 1.0); }

}  // namespace

// --- FLAT -------------------------------------------------------------------

FlatGovernor::FlatGovernor(const FlatGovernorConfig& config) : config_(config) {
  assert(config_.target > 0.0 && config_.target <= 1.0);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "flat-%.0f", config_.target * 100.0);
  name_ = buf;
}

std::optional<SpeedRequest> FlatGovernor::OnQuantum(const UtilizationSample& sample) {
  // Demand in MHz-equivalents; pick the slowest step that would bring the
  // utilization back to the target.  A saturated quantum under-reports
  // demand, so treat it as "at least one step more than now".
  const double busy_mhz = sample.utilization * ClockTable::FrequencyMhz(sample.step);
  int step;
  if (sample.utilization >= 0.999) {
    step = std::min(sample.step + 1, config_.max_step);
  } else {
    step = std::clamp(ClockTable::StepForAtLeastMhz(busy_mhz / config_.target),
                      config_.min_step, config_.max_step);
  }
  if (step == sample.step) {
    return std::nullopt;
  }
  SpeedRequest request;
  request.step = step;
  return request;
}

// --- LONG_SHORT ---------------------------------------------------------------

LongShortPredictor::LongShortPredictor(int short_window, int long_window)
    : short_window_(short_window), long_window_(long_window) {
  assert(short_window >= 1 && long_window >= short_window);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "LS%d_%d", short_window_, long_window_);
  name_ = buf;
}

double LongShortPredictor::Update(double utilization) {
  history_.push_back(Clamp01(utilization));
  if (static_cast<int>(history_.size()) > long_window_) {
    history_.pop_front();
  }
  double short_sum = 0.0;
  const int short_n = std::min<int>(short_window_, static_cast<int>(history_.size()));
  for (int i = 0; i < short_n; ++i) {
    short_sum += history_[history_.size() - 1 - static_cast<std::size_t>(i)];
  }
  double long_sum = 0.0;
  for (std::size_t i = 0; i < history_.size(); ++i) {
    long_sum += history_[i];
  }
  const double short_avg = short_sum / short_n;
  const double long_avg = long_sum / static_cast<double>(history_.size());
  current_ = (3.0 * short_avg + long_avg) / 4.0;
  return current_;
}

void LongShortPredictor::Reset() {
  history_.clear();
  current_ = 0.0;
}

// --- CYCLE ----------------------------------------------------------------------

CyclePredictor::CyclePredictor(int cycle_length, double tolerance)
    : cycle_length_(cycle_length), tolerance_(tolerance),
      name_("CYCLE" + std::to_string(cycle_length)) {
  assert(cycle_length >= 2);
}

double CyclePredictor::Update(double utilization) {
  const std::size_t len = static_cast<std::size_t>(cycle_length_);
  history_.push_back(Clamp01(utilization));
  if (history_.size() > 2 * len) {
    history_.pop_front();
  }
  const std::size_t n = history_.size();
  cycle_matched_ = false;
  if (n >= 2 * len) {
    // Compare the last cycle with the one before it.
    double err = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      err += std::abs(history_[n - 1 - i] - history_[n - 1 - i - len]);
    }
    if (err / static_cast<double>(len) <= tolerance_) {
      // Strong periodicity: predict what happened one cycle ago (the
      // element that followed the matching phase position).
      cycle_matched_ = true;
      current_ = history_[n - len];
      return current_;
    }
  }
  // Fallback: mean of the last cycle_length quanta.
  double sum = 0.0;
  const std::size_t take = std::min(n, len);
  for (std::size_t i = 0; i < take; ++i) {
    sum += history_[n - 1 - i];
  }
  current_ = sum / static_cast<double>(take);
  return current_;
}

void CyclePredictor::Reset() {
  history_.clear();
  current_ = 0.0;
  cycle_matched_ = false;
}

// --- PEAK ----------------------------------------------------------------------

PeakPredictor::PeakPredictor() : name_("PEAK") {}

double PeakPredictor::Update(double utilization) {
  const double u = Clamp01(utilization);
  if (!primed_) {
    primed_ = true;
    previous_ = u;
    current_ = u;
    return current_;
  }
  if (u > previous_) {
    // Rising edge: expect a narrow peak — predict a fall back to the
    // previous level rather than continued growth.
    current_ = previous_;
  } else if (u < previous_) {
    // Falling edge: expect the fall to continue by the same amount.
    current_ = Clamp01(u - (previous_ - u));
  } else {
    current_ = u;
  }
  previous_ = u;
  return current_;
}

void PeakPredictor::Reset() {
  previous_ = 0.0;
  current_ = 0.0;
  primed_ = false;
}

}  // namespace dcs
