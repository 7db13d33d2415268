#include "src/core/predictor.h"

#include <algorithm>
#include <cassert>

namespace dcs {
namespace {

double ClampUtilization(double u) { return std::clamp(u, 0.0, 1.0); }

}  // namespace

PastPredictor::PastPredictor() : name_("PAST") {}

double PastPredictor::Update(double utilization) {
  last_ = ClampUtilization(utilization);
  return last_;
}

AvgNPredictor::AvgNPredictor(int n) : n_(n), name_("AVG" + std::to_string(n)) {
  assert(n >= 0);
}

double AvgNPredictor::Update(double utilization) {
  weighted_ = (n_ * weighted_ + ClampUtilization(utilization)) / (n_ + 1);
  return weighted_;
}

SlidingWindowPredictor::SlidingWindowPredictor(int window)
    : window_(window), name_("WIN" + std::to_string(window)) {
  assert(window >= 1);
}

double SlidingWindowPredictor::Update(double utilization) {
  samples_.push_back(ClampUtilization(utilization));
  sum_ += samples_.back();
  if (static_cast<int>(samples_.size()) > window_) {
    sum_ -= samples_.front();
    samples_.pop_front();
  }
  return Current();
}

double SlidingWindowPredictor::Current() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return sum_ / static_cast<double>(samples_.size());
}

void SlidingWindowPredictor::Reset() {
  samples_.clear();
  sum_ = 0.0;
}

}  // namespace dcs
