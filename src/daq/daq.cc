#include "src/daq/daq.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/daq/block_passes.h"
#include "src/daq/noise_kernel.h"
#include "src/fault/fault_injector.h"

namespace dcs {
namespace {

// The uniform draws of one block, in the reference pipeline's stream order:
// per sample the shunt pair, then the supply pair, each pair only when its
// channel is noisy.  `rng` is the caller's local copy of the DAQ generator,
// so its state stays in registers for the whole loop.
template <bool kShuntNoise, bool kSupplyNoise>
inline void DrawUniforms(Rng& rng, int n, double* u1, double* u2, double* u3, double* u4) {
  for (int i = 0; i < n; ++i) {
    if constexpr (kShuntNoise) {
      u1[i] = rng.NextDouble();
      u2[i] = rng.NextDouble();
    }
    if constexpr (kSupplyNoise) {
      u3[i] = rng.NextDouble();
      u4[i] = rng.NextDouble();
    }
  }
}

// The tape as runs of sample indices.  Sample k is taken at
// begin + FromSecondsF(k * period_s), which never decreases as k grows, so
// each power segment covers a contiguous run of indices, possibly empty.
// FillTo writes the raw shunt volts of every sample up to `stop` into
// `window`, continuing where the previous call stopped: one volts expression
// per run, and each run's end is estimated, then corrected against that
// exact instant.
class TapeRuns {
 public:
  TapeRuns(const PowerTape& tape, SimTime begin, double period_s, std::int64_t count,
           double supply_volts, double shunt_ohms)
      : segs_(tape.segments()), begin_(begin), period_s_(period_s), count_(count),
        supply_volts_(supply_volts), shunt_ohms_(shunt_ohms) {
    if (!tape.keeps_history()) {
      throw std::logic_error("Daq: sampling a tape without history");
    }
    // One binary search finds the segment in force at sample 0, so a window
    // that opens deep into a long tape does not walk its head.  A sample
    // before the first segment reads 0 W.
    next_ = static_cast<std::size_t>(
        std::upper_bound(segs_.begin(), segs_.end(), At(0),
                         [](SimTime x, const PowerTape::Segment& s) { return x < s.start; }) -
        segs_.begin());
    StartRun(next_ == 0 ? 0.0 : segs_[next_ - 1].watts);
  }

  void FillTo(double* window, std::int64_t stop) {
    while (k_ < stop) {
      if (k_ == run_end_) {
        // The run ended where segment next_ starts (run_end_ < count_, so
        // there is one); its own run may be empty.
        StartRun(segs_[next_++].watts);
        continue;
      }
      const std::int64_t fill_end = std::min(run_end_, stop);
      std::fill(window + k_, window + fill_end, volts_);
      k_ = fill_end;
    }
  }

 private:
  // Sample k's instant: the one expression every run boundary is judged by.
  SimTime At(std::int64_t k) const { return begin_ + SimTime::FromSecondsF(k * period_s_); }

  // Starts the run from sample k_ at `watts`, up to where segment next_
  // starts.
  void StartRun(double watts) {
    volts_ = (watts / supply_volts_) * shunt_ohms_;
    run_end_ = next_ < segs_.size() ? FirstAtOrAfter(segs_[next_].start, k_) : count_;
  }

  // The first index in [lo, count_] whose instant is at or after `t`, given
  // that every instant below lo is before it.  The estimate comes from the
  // real-valued quotient; At() is non-decreasing, so stepping down while the
  // previous instant is not before `t`, then up while this one is, lands on
  // the exact answer.
  std::int64_t FirstAtOrAfter(SimTime t, std::int64_t lo) const {
    const double estimate = std::ceil((t - begin_).ToSeconds() / period_s_);
    std::int64_t k = count_;
    if (estimate < static_cast<double>(count_)) {
      k = estimate > static_cast<double>(lo) ? static_cast<std::int64_t>(estimate) : lo;
    }
    while (k > lo && At(k - 1) >= t) {
      --k;
    }
    while (k < count_ && At(k) < t) {
      ++k;
    }
    return k;
  }

  const PowerTape::SegmentVector& segs_;
  SimTime begin_;
  double period_s_;
  std::int64_t count_;
  double supply_volts_;
  double shunt_ohms_;
  std::int64_t k_ = 0;        // the next sample to fill
  std::int64_t run_end_ = 0;  // one past the current run's last sample
  std::size_t next_ = 0;      // the segment starting where the current run ends
  double volts_ = 0.0;        // the current run's raw shunt volts
};

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
  SampleBatched(tape, begin, count, period_s);
  ApplyDrops();
  return {samples_.data(), samples_.size()};
}

void Daq::SampleBatched(const PowerTape& tape, SimTime begin, std::int64_t count,
                        double period_s) {
  // Structure-of-arrays pipeline.  Every pass below either (a) performs,
  // per element, exactly the operations the scalar reference pipeline
  // (tests/support/reference_daq.h) performs in exactly the same order —
  // divide/multiply/clamp/round, all correctly rounded per IEEE-754, so
  // reordering *across* elements cannot change any bit — (b) is a serial
  // pass whose cross-element order matters (the RNG stream) and is kept in
  // stream order, or (c) is the channel kernel (src/daq/noise_kernel.h),
  // which approximates the noise and recomputes exactly every reading whose
  // ADC code the approximation could have moved.  The element-wise passes
  // run through the ISA variant this CPU supports (src/daq/block_passes.h);
  // all variants give the same bits.
  TapeRuns runs(tape, begin, period_s, count, config_.supply_volts, config_.shunt_ohms);
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

  double* const u1 = scratch_.u1.data();
  double* const u2 = scratch_.u2.data();
  double* const u3 = scratch_.u3.data();
  double* const u4 = scratch_.u4.data();

  // The batches compute straight into the output vector (reserved to `count`
  // by SampleWindow), so finished values are never copied out of scratch.
  samples_.resize(static_cast<std::size_t>(count));
  double* const out = samples_.data();

  Rng rng = rng_;
  for (std::int64_t base = 0; base < count; base += kBatch) {
    const int n = static_cast<int>(std::min<std::int64_t>(kBatch, count - base));
    block.vals = out + base;
    block.n = n;
    // Pass 1 (serial, per run): each power segment's raw shunt volts, once
    // per run of samples it covers.
    runs.FillTo(out, base + n);
    // Pass 2 (serial): uniform draws in the reference's stream order.
    if (shunt_noise && supply_noise) {
      DrawUniforms<true, true>(rng, n, u1, u2, u3, u4);
    } else if (shunt_noise) {
      DrawUniforms<true, false>(rng, n, u1, u2, u3, u4);
    } else if (supply_noise) {
      DrawUniforms<false, true>(rng, n, u1, u2, u3, u4);
    }
    // Pass 3 (element-wise): both channel kernels, then measured current x
    // measured rail -> power.
    run_passes(block);
  }
  rng_ = rng;
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
