#include "src/daq/daq.h"

#include <algorithm>
#include <cmath>

#include "src/daq/block_passes.h"
#include "src/daq/noise_kernel.h"
#include "src/fault/fault_injector.h"

namespace dcs {
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

}  // namespace

namespace block_passes {
namespace {

// The element-wise passes of one block, the body of every ISA variant.
inline int RunPasses(const Block& b) {
  double* const vals = b.vals;
  double* const supply = b.supply;
  double* const u3 = b.u3;
  const int n = b.n;
  const double supply_volts = b.supply_volts;
  const double shunt_ohms = b.shunt_ohms;
  // True watts -> raw shunt volts.
  for (int i = 0; i < n; ++i) {
    vals[i] = (vals[i] / supply_volts) * shunt_ohms;
  }
  // The supply channel (a constant rail) into `supply`, then the shunt
  // channel into u3, whose draws are spent.
  int recomputed = noise_kernel::QuantiseChannel(
      [supply_volts](int) { return supply_volts; }, u3, b.u4, supply, n, b.supply_rail);
  recomputed += noise_kernel::QuantiseChannel([vals](int i) { return vals[i]; }, b.u1, b.u2,
                                              u3, n, b.shunt);
  // Measured current x measured rail -> power.
  for (int i = 0; i < n; ++i) {
    vals[i] = (u3[i] / shunt_ohms) * supply[i];
  }
  return recomputed;
}

// `flatten` inlines the channel kernel into each variant.  Without it GCC
// may keep a QuantiseChannel instance out of line, where it runs at the
// baseline ISA whatever its caller's.
[[gnu::flatten]] int PassesBaseline(const Block& b) { return RunPasses(b); }

// The ISA-level names in target attributes and __builtin_cpu_supports need
// GCC 12 or Clang 18.
#if defined(__x86_64__) && \
    ((defined(__clang__) && __clang_major__ >= 18) || (!defined(__clang__) && __GNUC__ >= 12))
#define DCS_DAQ_ISA_LEVELS 1
[[gnu::flatten, gnu::target("arch=x86-64-v3")]] int PassesV3(const Block& b) {
  return RunPasses(b);
}
[[gnu::flatten, gnu::target("arch=x86-64-v4")]] int PassesV4(const Block& b) {
  return RunPasses(b);
}
#endif

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kBaseline:
      return "baseline";
    case Isa::kX86_64_V3:
      return "x86-64-v3";
    case Isa::kX86_64_V4:
      return "x86-64-v4";
  }
  return "unknown";
}

PassesFn PassesFor(Isa isa) {
  switch (isa) {
    case Isa::kBaseline:
      return &PassesBaseline;
#ifdef DCS_DAQ_ISA_LEVELS
    case Isa::kX86_64_V3:
      return &PassesV3;
    case Isa::kX86_64_V4:
      return &PassesV4;
#endif
    default:
      return nullptr;
  }
}

bool Runnable(Isa isa) {
  if (PassesFor(isa) == nullptr) {
    return false;
  }
#ifdef DCS_DAQ_ISA_LEVELS
  // The builtins also check that the OS saves the wider register state.
  __builtin_cpu_init();
  if (isa == Isa::kX86_64_V3) {
    return __builtin_cpu_supports("x86-64-v3");
  }
  if (isa == Isa::kX86_64_V4) {
    return __builtin_cpu_supports("x86-64-v4");
  }
#endif
  return true;
}

Isa Chosen() {
  static const Isa chosen = [] {
    Isa widest = Isa::kBaseline;
    for (const Isa isa : kAllIsas) {
      if (Runnable(isa)) {
        widest = isa;
      }
    }
    return widest;
  }();
  return chosen;
}

}  // namespace block_passes

const char* Daq::IsaVariant() { return block_passes::IsaName(block_passes::Chosen()); }

Daq::Daq(const DaqConfig& config, Arena* arena)
    : config_(config), rng_(config.seed),
      samples_(ArenaAllocator<double>(arena)),
      dropped_(ArenaAllocator<std::size_t>(arena)) {
  const double steps = std::pow(2.0, config_.adc_bits);
  // Shunt channel is bipolar (+/- range); supply channel unipolar.
  shunt_lsb_ = 2.0 * config_.shunt_range_volts / steps;
  supply_lsb_ = config_.supply_range_volts / steps;
}

double Daq::ReadPower(double watts, double sigma_shunt, double sigma_supply) {
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

std::span<const double> Daq::SampleWindow(const PowerTape& tape, SimTime begin,
                                          SimTime end) {
  samples_.clear();
  if (end <= begin) {
    return {};
  }
  const double period_s = 1.0 / config_.sample_hz;
  const std::int64_t count = static_cast<std::int64_t>(
      std::floor((end - begin).ToSeconds() / period_s));
  samples_.reserve(static_cast<std::size_t>(count));
  if (config_.reference_sampling) {
    SampleScalar(tape, begin, count, period_s);
  } else {
    SampleBatched(tape, begin, count, period_s);
    ApplyDrops();
  }
  return {samples_.data(), samples_.size()};
}

std::vector<double> Daq::SamplePowerWatts(const PowerTape& tape, SimTime begin,
                                          SimTime end) {
  const std::span<const double> window = SampleWindow(tape, begin, end);
  return std::vector<double>(window.begin(), window.end());
}

void Daq::SampleScalar(const PowerTape& tape, SimTime begin, std::int64_t count,
                       double period_s) {
  // Sample times are non-decreasing, so a tape cursor makes each lookup
  // amortised O(1) instead of a fresh binary search per sample.  The noise
  // sigmas are loop-invariant; hoisting them keeps the per-sample additions
  // bitwise-identical (same product, same order of draws).
  PowerTape::Cursor cursor(tape);
  const double sigma_shunt = config_.noise_lsb * shunt_lsb_;
  const double sigma_supply = config_.noise_lsb * supply_lsb_;
  if (faults_ == nullptr) {
    // Fast path: without an injector no sample can drop, so skip the drop
    // checks and never materialise the dropped-index bookkeeping.
    for (std::int64_t i = 0; i < count; ++i) {
      const SimTime t = begin + SimTime::FromSecondsF(i * period_s);
      samples_.push_back(ReadPower(cursor.WattsAt(t), sigma_shunt, sigma_supply));
    }
    return;
  }
  dropped_.clear();
  for (std::int64_t i = 0; i < count; ++i) {
    const SimTime t = begin + SimTime::FromSecondsF(i * period_s);
    // The reading is always taken (the ADC ran; its noise stream must not
    // shift) — a drop loses the value on the way to the host.
    const double reading = ReadPower(cursor.WattsAt(t), sigma_shunt, sigma_supply);
    if (faults_->DropSample()) {
      dropped_.push_back(samples_.size());
      samples_.push_back(0.0);
    } else {
      samples_.push_back(reading);
    }
  }
  if (!dropped_.empty()) {
    dropped_samples_ += dropped_.size();
    InterpolateDropped(samples_.data(), samples_.size(), dropped_.data(),
                       dropped_.size());
  }
}

void Daq::SampleBatched(const PowerTape& tape, SimTime begin, std::int64_t count,
                        double period_s) {
  // Structure-of-arrays pipeline.  Every pass below either (a) performs,
  // per element, exactly the operations the scalar pipeline performs in
  // exactly the same order — divide/multiply/clamp/round, all correctly
  // rounded per IEEE-754, so reordering *across* elements cannot change any
  // bit — (b) is a serial pass whose cross-element order matters (the RNG
  // stream, the cursor walk) and is kept in stream order, or (c) is the
  // channel kernel (src/daq/noise_kernel.h), which approximates the noise
  // and recomputes exactly every reading whose ADC code the approximation
  // could have moved.  The element-wise passes run through the ISA variant
  // this CPU supports (src/daq/block_passes.h); all variants give the same
  // bits.
  PowerTape::Cursor cursor(tape);
  const block_passes::PassesFn run_passes =
      block_passes::PassesFor(block_passes::Chosen());
  block_passes::Block block{};
  block.supply = scratch_.supply.data();
  block.u1 = scratch_.u1.data();
  block.u2 = scratch_.u2.data();
  block.u3 = scratch_.u3.data();
  block.u4 = scratch_.u4.data();
  block.supply_volts = config_.supply_volts;
  block.shunt_ohms = config_.shunt_ohms;
  block.shunt = {config_.noise_lsb * shunt_lsb_, -config_.shunt_range_volts,
                 config_.shunt_range_volts, shunt_lsb_};
  block.supply_rail = {config_.noise_lsb * supply_lsb_, 0.0, config_.supply_range_volts,
                       supply_lsb_};
  const bool shunt_noise = block.shunt.sigma != 0.0;
  const bool supply_noise = block.supply_rail.sigma != 0.0;

  SimTime* const times = scratch_.times.data();
  double* const u1 = scratch_.u1.data();
  double* const u2 = scratch_.u2.data();
  double* const u3 = scratch_.u3.data();
  double* const u4 = scratch_.u4.data();

  // The batches compute straight into the output vector (reserved to `count`
  // by SampleWindow), so finished values are never copied out of scratch.
  samples_.resize(static_cast<std::size_t>(count));
  double* const out = samples_.data();

  for (std::int64_t base = 0; base < count; base += kBatch) {
    const int n = static_cast<int>(std::min<std::int64_t>(kBatch, count - base));
    block.vals = out + base;
    block.n = n;
    // Pass 1 (serial): timestamps, then the cursor gather in time order.
    for (int i = 0; i < n; ++i) {
      times[i] = begin + SimTime::FromSecondsF((base + i) * period_s);
    }
    cursor.GatherWatts(times, static_cast<std::size_t>(n), block.vals);
    // Pass 2 (serial): uniform draws in the scalar pipeline's exact stream
    // order — per sample, shunt pair then supply pair, skipping a channel's
    // pair entirely when its noise is disabled.
    if (shunt_noise || supply_noise) {
      for (int i = 0; i < n; ++i) {
        if (shunt_noise) {
          u1[i] = rng_.NextDouble();
          u2[i] = rng_.NextDouble();
        }
        if (supply_noise) {
          u3[i] = rng_.NextDouble();
          u4[i] = rng_.NextDouble();
        }
      }
    }
    // Pass 3 (element-wise): watts -> shunt volts, both channel kernels,
    // measured current x measured rail -> power.
    run_passes(block);
  }
}

void Daq::ApplyDrops() {
  if (faults_ == nullptr) {
    return;
  }
  dropped_.clear();
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (faults_->DropSample()) {
      dropped_.push_back(i);
      samples_[i] = 0.0;
    }
  }
  if (!dropped_.empty()) {
    dropped_samples_ += dropped_.size();
    InterpolateDropped(samples_.data(), samples_.size(), dropped_.data(),
                       dropped_.size());
  }
}

void Daq::InterpolateDropped(double* samples, std::size_t n,
                             const std::size_t* dropped, std::size_t dropped_n) {
  for (std::size_t d = 0; d < dropped_n;) {
    // Maximal run of consecutive dropped indices [a, b].
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
      // A window with every sample dropped stays zero: there is nothing to
      // reconstruct from.
    }
    d = e + 1;
  }
}

double Daq::EnergyJoules(std::span<const double> samples) const {
  double joules = 0.0;
  const double dt = 1.0 / config_.sample_hz;
  for (const double p : samples) {
    joules += p * dt;
  }
  return joules;
}

double Daq::AverageWatts(std::span<const double> samples) const {
  if (samples.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double p : samples) {
    sum += p;
  }
  return sum / static_cast<double>(samples.size());
}

double Daq::MeasureEnergyJoules(const PowerTape& tape, SimTime begin, SimTime end) {
  return EnergyJoules(SampleWindow(tape, begin, end));
}

void GpioTrigger::Attach(Gpio& gpio) {
  gpio.Observe([this](int pin, SimTime at, bool /*level*/) {
    if (pin != pin_) {
      return;
    }
    if (!open_start_.has_value()) {
      open_start_ = at;
    } else {
      windows_.emplace_back(*open_start_, at);
      open_start_.reset();
    }
  });
}

}  // namespace dcs
