#include "src/hw/battery.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace dcs {

inline double Battery::PeukertPower(double amps) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(amps);
  std::size_t slot = MemoSlot(amps);
  for (std::size_t probe = 0; probe < kMemoProbes; ++probe) {
    MemoEntry& entry = memo_[slot];
    if (entry.amps_bits == bits) {
      return entry.power;
    }
    if (entry.amps_bits == 0) {
      entry = MemoEntry{bits, std::pow(amps, params_.peukert_exponent)};
      return entry.power;
    }
    slot = (slot + 1) & (kMemoSize - 1);
  }
  return std::pow(amps, params_.peukert_exponent);
}

void Battery::Drain(double watts, SimTime dt) {
  if (dt <= SimTime::Zero() || watts < 0.0) {
    return;
  }
  const SimTime life_before = life_;
  const double depth_before = depth_;
  life_ = life_ + dt;
  const double hours = dt.ToSeconds() / 3600.0;
  const double amps = watts / params_.supply_volts;
  if (amps <= 0.0) {
    // Pure rest: recovery only.
    const double recovered = std::min(recoverable_, recoverable_ * params_.recovery_per_hour * hours);
    recoverable_ -= recovered;
    depth_ = std::max(0.0, depth_ - recovered);
    return;
  }
  // Peukert drain: depth accrues at I^k / Cp per hour.
  const double peukert_rate = PeukertPower(amps) / params_.peukert_capacity;
  // The "ideal" drain an effect-free battery would see at the same current,
  // expressed against the capacity available at the reference current.
  const double ideal_rate = (amps * reference_penalty_) / params_.peukert_capacity;
  depth_ += peukert_rate * hours;
  if (!died_ && depth_ >= 1.0) {
    died_ = true;
    // Linear interpolation of the crossing point within this segment.
    const double rise = depth_ - depth_before;
    const double frac = rise > 0.0 ? std::clamp((1.0 - depth_before) / rise, 0.0, 1.0) : 1.0;
    died_at_ = life_before + SimTime::FromSecondsF(dt.ToSeconds() * frac);
  }
  if (peukert_rate > ideal_rate) {
    // High-rate segment: bank part of the excess loss as recoverable.
    recoverable_ += params_.recoverable_fraction * (peukert_rate - ideal_rate) * hours;
  } else {
    // Low-rate segment: the chemistry recovers part of the banked loss.
    const double recovered =
        std::min(recoverable_, recoverable_ * params_.recovery_per_hour * hours);
    recoverable_ -= recovered;
    depth_ = std::max(0.0, depth_ - recovered);
  }
}

double Battery::LifetimeHoursAtConstantPower(double watts) const {
  if (watts <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  const double amps = watts / params_.supply_volts;
  return params_.peukert_capacity / std::pow(amps, params_.peukert_exponent);
}

}  // namespace dcs
