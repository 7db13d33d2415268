#include "tests/support/reference_daq.h"

#include <cmath>
#include <stdexcept>

#include "src/fault/fault_injector.h"

namespace dcs::testing {
namespace {

// Quantises `volts` to an ADC step of `lsb`, clamped to [lo, hi].
double Quantise(double volts, double lsb, double lo, double hi) {
  if (volts < lo) {
    volts = lo;
  }
  if (volts > hi) {
    volts = hi;
  }
  return std::round(volts / lsb) * lsb;
}

// Reconstructs the samples at `dropped` (sorted indices) in place: each
// maximal run of dropped indices [a, b] by linear interpolation between
// samples a - 1 and b + 1; a run at an edge copies its one survivor, and a
// window with every sample dropped stays zero.
void InterpolateDropped(double* samples, std::size_t n, const std::size_t* dropped,
                        std::size_t dropped_n) {
  for (std::size_t d = 0; d < dropped_n;) {
    const std::size_t a = dropped[d];
    std::size_t e = d;
    while (e + 1 < dropped_n && dropped[e + 1] == dropped[e] + 1) {
      ++e;
    }
    const std::size_t b = dropped[e];
    const bool has_left = a > 0;
    const bool has_right = b + 1 < n;
    for (std::size_t i = a; i <= b; ++i) {
      if (has_left && has_right) {
        const double frac = static_cast<double>(i - a + 1) / static_cast<double>(b - a + 2);
        samples[i] = samples[a - 1] + (samples[b + 1] - samples[a - 1]) * frac;
      } else if (has_left) {
        samples[i] = samples[a - 1];
      } else if (has_right) {
        samples[i] = samples[b + 1];
      }
    }
    d = e + 1;
  }
}

}  // namespace

ReferenceDaq::ReferenceDaq(const DaqConfig& config) : config_(config), rng_(config.seed) {
  const double steps = std::pow(2.0, config_.adc_bits);
  // Shunt channel is bipolar (+/- range); supply channel unipolar.
  shunt_lsb_ = 2.0 * config_.shunt_range_volts / steps;
  supply_lsb_ = config_.supply_range_volts / steps;
}

double ReferenceDaq::ReadPower(double watts, double sigma_shunt, double sigma_supply) {
  const double amps = watts / config_.supply_volts;
  // Channel 1: shunt voltage drop.  A zero-sigma Gaussian only ever adds a
  // signed zero, which cannot change any reachable reading, so the draws are
  // skipped entirely when noise is disabled (nothing else observes rng_).
  double shunt_v = amps * config_.shunt_ohms;
  if (sigma_shunt != 0.0) {
    shunt_v += rng_.Gaussian(0.0, sigma_shunt);
  }
  shunt_v = Quantise(shunt_v, shunt_lsb_, -config_.shunt_range_volts,
                     config_.shunt_range_volts);
  // Channel 2: supply voltage.
  double supply_v = config_.supply_volts;
  if (sigma_supply != 0.0) {
    supply_v += rng_.Gaussian(0.0, sigma_supply);
  }
  supply_v = Quantise(supply_v, supply_lsb_, 0.0, config_.supply_range_volts);
  // "The current was then calculated by dividing the voltage by the
  // resistance."
  const double measured_amps = shunt_v / config_.shunt_ohms;
  return measured_amps * supply_v;
}

std::span<const double> ReferenceDaq::SampleWindow(const PowerTape& tape, SimTime begin,
                                                   SimTime end) {
  samples_.clear();
  if (end <= begin) {
    return {};
  }
  const double period_s = 1.0 / config_.sample_hz;
  const std::int64_t count = static_cast<std::int64_t>(
      std::floor((end - begin).ToSeconds() / period_s));
  samples_.reserve(static_cast<std::size_t>(count));
  // The batched DAQ refuses a tape without history, and so does the
  // reference.  The noise sigmas are loop-invariant.
  if (!tape.keeps_history()) {
    throw std::logic_error("ReferenceDaq: sampling a tape without history");
  }
  const double sigma_shunt = config_.noise_lsb * shunt_lsb_;
  const double sigma_supply = config_.noise_lsb * supply_lsb_;
  dropped_.clear();
  for (std::int64_t i = 0; i < count; ++i) {
    const SimTime t = begin + SimTime::FromSecondsF(i * period_s);
    // The reading is always taken (the ADC ran; its noise stream must not
    // shift) — a drop loses the value on the way to the host.
    const double reading = ReadPower(tape.WattsAt(t), sigma_shunt, sigma_supply);
    if (faults_ != nullptr && faults_->DropSample()) {
      dropped_.push_back(samples_.size());
      samples_.push_back(0.0);
    } else {
      samples_.push_back(reading);
    }
  }
  if (!dropped_.empty()) {
    dropped_samples_ += dropped_.size();
    InterpolateDropped(samples_.data(), samples_.size(), dropped_.data(), dropped_.size());
  }
  return {samples_.data(), samples_.size()};
}

}  // namespace dcs::testing
