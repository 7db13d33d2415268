#include "src/daq/daq.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "src/daq/block_passes.h"
#include "src/daq/noise_kernel.h"
#include "src/fault/fault_injector.h"

namespace dcs {
namespace {

// The tape as runs of sample indices.  Sample k is taken at
// begin + FromSecondsF(k * period_s), which never decreases as k grows, so
// each power segment covers a contiguous run of indices, possibly empty.
// A cursor reads samples [first, end); Fill writes the raw shunt volts of its
// next samples, continuing where the previous call stopped: one volts
// expression per run, and each run's end is estimated, then corrected
// against that exact instant.
class TapeRuns {
 public:
  TapeRuns() = default;
  TapeRuns(const PowerTape& tape, SimTime begin, double period_s, std::int64_t end,
           const block_passes::Pipeline& pipeline, std::int64_t first)
      : segs_(&tape.segments()), begin_(begin), period_s_(period_s), end_(end),
        supply_volts_(pipeline.supply_volts), shunt_ohms_(pipeline.shunt_ohms), k_(first) {
    if (!tape.keeps_history()) {
      throw std::logic_error("Daq: sampling a tape without history");
    }
    // One binary search finds the segment in force at sample `first`, so a
    // cursor that starts deep into a long tape does not walk its head.  A
    // sample before the first segment reads 0 W.
    next_ = static_cast<std::size_t>(
        std::upper_bound(segs_->begin(), segs_->end(), At(first),
                         [](SimTime x, const PowerTape::Segment& s) { return x < s.start; }) -
        segs_->begin());
    StartRun(next_ == 0 ? 0.0 : (*segs_)[next_ - 1].watts);
  }

  // The next n samples' raw shunt volts, to dst[0], dst[stride], ...
  void Fill(double* dst, int stride, std::int64_t n) {
    const std::int64_t first = k_;
    const std::int64_t stop = k_ + n;
    while (k_ < stop) {
      if (k_ == run_end_) {
        // The run ended where segment next_ starts (run_end_ < end_, so
        // there is one); its own run may be empty.
        StartRun((*segs_)[next_++].watts);
        continue;
      }
      const std::int64_t fill_end = std::min(run_end_, stop);
      for (std::int64_t k = k_; k < fill_end; ++k) {
        dst[(k - first) * stride] = volts_;
      }
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
    run_end_ = next_ < segs_->size() ? FirstAtOrAfter((*segs_)[next_].start, k_) : end_;
  }

  // The first index in [lo, end_] whose instant is at or after `t`, given
  // that every instant below lo is before it.  The estimate comes from the
  // real-valued quotient; At() is non-decreasing, so stepping down while the
  // previous instant is not before `t`, then up while this one is, lands on
  // the exact answer.
  std::int64_t FirstAtOrAfter(SimTime t, std::int64_t lo) const {
    const double estimate = std::ceil((t - begin_).ToSeconds() / period_s_);
    std::int64_t k = end_;
    if (estimate < static_cast<double>(end_)) {
      k = estimate > static_cast<double>(lo) ? static_cast<std::int64_t>(estimate) : lo;
    }
    while (k > lo && At(k - 1) >= t) {
      --k;
    }
    while (k < end_ && At(k) < t) {
      ++k;
    }
    return k;
  }

  const PowerTape::SegmentVector* segs_ = nullptr;
  SimTime begin_;
  double period_s_ = 0.0;
  std::int64_t end_ = 0;
  double supply_volts_ = 0.0;
  double shunt_ohms_ = 0.0;
  std::int64_t k_ = 0;        // the next sample to fill
  std::int64_t run_end_ = 0;  // one past the current run's last sample
  std::size_t next_ = 0;      // the segment starting where the current run ends
  double volts_ = 0.0;        // the current run's raw shunt volts
};

// n samples' draws from one generator, in its stream's order: sample i's
// draws go to dst[0][i * stride], ..., dst[kDraws - 1][i * stride].  The
// serial lane step passes a local copy of each lane's generator, so its
// state stays in registers for the whole loop.
inline void DrawSerial(Rng& rng, int n, double* const* dst, int stride) {
  using block_passes::kDraws;
  double* out[kDraws] = {};
  for (int q = 0; q < kDraws; ++q) {
    out[q] = dst[q];
  }
  for (int i = 0; i < n; ++i) {
    for (int q = 0; q < kDraws; ++q) {
      out[q][i * stride] = rng.NextDouble();
    }
  }
}

}  // namespace

namespace block_passes {
namespace {

// Eight doubles and their shuffle masks, as GCC vector types: one step of
// every lane.
static_assert(kLanes == 8);
using F8 = double __attribute__((vector_size(64)));
using M8 = std::int64_t __attribute__((vector_size(64)));

// Transposes an 8x8 tile in three rounds of two-input shuffles: pairs of
// elements, then of pairs, then of quads.  Before, rows[r][c]; after,
// rows[c][r].
inline void Transpose8(F8* rows) {
  F8 t[8];
  for (int r = 0; r < 8; r += 2) {
    t[r] = __builtin_shuffle(rows[r], rows[r + 1], M8{0, 8, 2, 10, 4, 12, 6, 14});
    t[r + 1] = __builtin_shuffle(rows[r], rows[r + 1], M8{1, 9, 3, 11, 5, 13, 7, 15});
  }
  for (const int r : {0, 1, 4, 5}) {
    rows[r] = __builtin_shuffle(t[r], t[r + 2], M8{0, 1, 8, 9, 4, 5, 12, 13});
    rows[r + 2] = __builtin_shuffle(t[r], t[r + 2], M8{2, 3, 10, 11, 6, 7, 14, 15});
  }
  for (int r = 0; r < 4; ++r) {
    t[r] = __builtin_shuffle(rows[r], rows[r + 4], M8{0, 1, 2, 3, 8, 9, 10, 11});
    t[r + 4] = __builtin_shuffle(rows[r], rows[r + 4], M8{4, 5, 6, 7, 12, 13, 14, 15});
  }
  for (int r = 0; r < 8; ++r) {
    rows[r] = t[r];
  }
}

// The element-wise passes of one block, the body of every ISA variant.
inline int RunPasses(const Block& b) {
  const double* const vals = b.vals;
  double* const supply = b.supply;
  double* const u3 = b.u3;
  const int n = b.n;
  const double supply_volts = b.pipeline->supply_volts;
  const double shunt_ohms = b.pipeline->shunt_ohms;
  // The supply channel (a constant rail) into `supply`, then the shunt
  // channel into u3, whose draws are spent.
  int recomputed = noise_kernel::QuantiseChannel(
      [supply_volts](int) { return supply_volts; }, u3, b.u4, supply, n,
      b.pipeline->supply_rail);
  recomputed += noise_kernel::QuantiseChannel([vals](int i) { return vals[i]; }, b.u1, b.u2,
                                              u3, n, b.pipeline->shunt);
  // Measured current x measured rail -> power, into each lane's slot of the
  // window: eight steps of the eight lanes at a time, transposed so that
  // each lane's eight land as one contiguous store.
  const int steps = n / b.lanes;
  int s = 0;
  if (b.lanes == kLanes) {
    for (; s + 8 <= steps; s += 8) {
      F8 rows[8];
      for (int r = 0; r < 8; ++r) {
        F8 shunt_v{};
        F8 rail{};
        std::memcpy(&shunt_v, u3 + (s + r) * kLanes, sizeof shunt_v);
        std::memcpy(&rail, supply + (s + r) * kLanes, sizeof rail);
        rows[r] = (shunt_v / shunt_ohms) * rail;
      }
      Transpose8(rows);
      for (int j = 0; j < kLanes; ++j) {
        std::memcpy(b.out[j] + s, &rows[j], sizeof rows[j]);
      }
    }
  }
  for (; s < steps; ++s) {
    for (int j = 0; j < b.lanes; ++j) {
      const int i = s * b.lanes + j;
      b.out[j][s] = (u3[i] / shunt_ohms) * supply[i];
    }
  }
  return recomputed;
}

// The serial lane step: each lane in turn, its generator in registers.  The
// baseline runs it: SSE2 holds two lanes per register, and stepping them two
// at a time measured no faster.
inline void StepLanesSerial(RngLanes& lanes, int steps, double* const* dst) {
  for (int j = 0; j < kLanes; ++j) {
    double* lane_dst[kDraws] = {};
    for (int q = 0; q < kDraws; ++q) {
      lane_dst[q] = dst[q] + j;
    }
    Rng rng = lanes.Get(j);
    DrawSerial(rng, steps, lane_dst, kLanes);
    lanes.Set(j, rng);
  }
}

// kWidth lanes of 64-bit words and of doubles, as GCC vector types.
template <int kWidth>
struct LaneVectors;
template <>
struct LaneVectors<4> {
  using U = std::uint64_t __attribute__((vector_size(32)));
  using F = double __attribute__((vector_size(32)));
};
template <>
struct LaneVectors<8> {
  using U = std::uint64_t __attribute__((vector_size(64)));
  using F = double __attribute__((vector_size(64)));
};

// The vector lane step: Rng::Next and Rng::NextDouble on kWidth lanes at a
// time, a group's state held in four vectors.  x86-64-v4 steps all eight
// lanes in four registers.  x86-64-v3 steps two groups of four in turn:
// eight lanes would take two ymm registers per word, and with the
// temporaries they spill (measured slower).  Nothing here takes or returns a
// vector by value, so no function's ABI depends on the ISA it is compiled
// for.
//
// NextDouble is (result >> 11) * 2^-53, an exact conversion of a 53-bit
// integer.  kConvert uses the ISA's 64-bit integer conversion (AVX-512DQ has
// one).  Otherwise the integer converts as two halves, each placed in the
// mantissa of a power of two that is then subtracted, and their sum is exact
// too.
template <int kWidth, bool kConvert>
inline void StepLanesVector(RngLanes& lanes, int steps, double* const* dst) {
  using U = typename LaneVectors<kWidth>::U;
  using F = typename LaneVectors<kWidth>::F;
  constexpr std::uint64_t kLow32 = 0xffffffff;
  constexpr std::uint64_t kTwo52Bits = 0x4330000000000000;  // 2^52, ulp 1
  constexpr std::uint64_t kTwo84Bits = 0x4530000000000000;  // 2^84, ulp 2^32
  double* out[kDraws] = {};
  for (int q = 0; q < kDraws; ++q) {
    out[q] = dst[q];
  }
  for (int g = 0; g < kLanes; g += kWidth) {
    U s0{}, s1{}, s2{}, s3{};
    std::memcpy(&s0, &lanes.s[0][g], sizeof s0);
    std::memcpy(&s1, &lanes.s[1][g], sizeof s1);
    std::memcpy(&s2, &lanes.s[2][g], sizeof s2);
    std::memcpy(&s3, &lanes.s[3][g], sizeof s3);
    for (int i = 0; i < steps; ++i) {
      for (int q = 0; q < kDraws; ++q) {
        const U sum = s0 + s3;
        const U result = ((sum << 23) | (sum >> 41)) + s0;
        const U t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = (s3 << 45) | (s3 >> 19);
        const U m = result >> 11;
        F draw{};
        if constexpr (kConvert) {
          draw = __builtin_convertvector(m, F) * 0x1p-53;
        } else {
          const F lo = (F)((m & kLow32) | kTwo52Bits) - 0x1p52;
          const F hi = (F)((m >> 32) | kTwo84Bits) - 0x1p84;
          draw = (hi + lo) * 0x1p-53;
        }
        std::memcpy(out[q] + i * kLanes + g, &draw, sizeof draw);
      }
    }
    std::memcpy(&lanes.s[0][g], &s0, sizeof s0);
    std::memcpy(&lanes.s[1][g], &s1, sizeof s1);
    std::memcpy(&lanes.s[2][g], &s2, sizeof s2);
    std::memcpy(&lanes.s[3][g], &s3, sizeof s3);
  }
}

// `flatten` inlines the channel kernel and the lane step into each variant.
// Without it GCC may keep a QuantiseChannel instance out of line, where it
// runs at the baseline ISA whatever its caller's.
[[gnu::flatten]] int PassesBaseline(const Block& b) { return RunPasses(b); }
[[gnu::flatten]] void LaneStepBaseline(RngLanes& lanes, int steps, double* const* dst) {
  StepLanesSerial(lanes, steps, dst);
}

// The ISA-level names in target attributes and __builtin_cpu_supports need
// GCC 12 or Clang 18.
#if defined(__x86_64__) && \
    ((defined(__clang__) && __clang_major__ >= 18) || (!defined(__clang__) && __GNUC__ >= 12))
#define DCS_DAQ_ISA_LEVELS 1
[[gnu::flatten, gnu::target("arch=x86-64-v3")]] int PassesV3(const Block& b) {
  return RunPasses(b);
}
[[gnu::flatten, gnu::target("arch=x86-64-v3")]] void LaneStepV3(RngLanes& lanes, int steps,
                                                                 double* const* dst) {
  StepLanesVector<4, false>(lanes, steps, dst);
}
[[gnu::flatten, gnu::target("arch=x86-64-v4")]] int PassesV4(const Block& b) {
  return RunPasses(b);
}
[[gnu::flatten, gnu::target("arch=x86-64-v4")]] void LaneStepV4(RngLanes& lanes, int steps,
                                                                 double* const* dst) {
  StepLanesVector<8, true>(lanes, steps, dst);
}
#endif

}  // namespace

#ifdef DCS_DAQ_ISA_LEVELS
const Variant kVariants[] = {{&PassesBaseline, &LaneStepBaseline},
                             {&PassesV3, &LaneStepV3},
                             {&PassesV4, &LaneStepV4}};
#else
const Variant kVariants[] = {{&PassesBaseline, &LaneStepBaseline}, {}, {}};
#endif

bool Runnable(Isa isa) {
  if (VariantFor(isa).passes == nullptr) {
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

int Sample(Isa isa, const Pipeline& pipeline, const PowerTape& tape, SimTime begin,
           double period_s, std::int64_t first, std::int64_t count, Rng& rng, Scratch& scratch,
           double* out) {
  // Every pass below either (a) performs, per element, exactly the
  // operations the scalar reference pipeline (tests/support/reference_daq.h)
  // performs in exactly the same order — divide/multiply/clamp/round, all
  // correctly rounded per IEEE-754, so reordering *across* elements cannot
  // change any bit — (b) draws a generator's stream in its order, each lane
  // from its own place in the DAQ's one stream, or (c) is the channel kernel
  // (src/daq/noise_kernel.h), which screens the noise and recomputes
  // exactly every reading whose ADC code the screen could have moved, or (d)
  // moves values without arithmetic (the transpose).
  const Variant variant = VariantFor(isa);
  Block block{};
  block.supply = scratch.supply.data();
  block.u1 = scratch.u1.data();
  block.u2 = scratch.u2.data();
  block.u3 = scratch.u3.data();
  block.u4 = scratch.u4.data();
  block.pipeline = &pipeline;
  // A noisy pipeline's draws in the reference's stream order: the shunt
  // pair, then the supply pair.  Both channels are noisy or neither is (the
  // Daq constructor rejects the rest).
  assert((pipeline.shunt.sigma != 0.0) == (pipeline.supply_rail.sigma != 0.0));
  double* const dst[kDraws] = {scratch.u1.data(), scratch.u2.data(), scratch.u3.data(),
                               scratch.u4.data()};
  const int draws = pipeline.shunt.sigma != 0.0 ? kDraws : 0;

  // Place the lanes: lane j at reading first + j * per_lane, with its
  // generator j * per_lane * draws draws on from `rng`.
  const std::int64_t per_lane = count / kLanes;
  const std::int64_t end = first + count;
  RngLanes lanes;
  TapeRuns cursors[kLanes];
  {
    const auto lane_draws = static_cast<std::uint64_t>(per_lane * draws);
    if (lane_draws != scratch.jump_draws) {
      scratch.jump = Rng::JumpOf(lane_draws);
      scratch.jump_draws = lane_draws;
    }
    Rng lane = rng;
    for (int j = 0; j < kLanes; ++j) {
      if (j > 0 && lane_draws > 0) {
        lane.Jump(scratch.jump);
      }
      lanes.Set(j, lane);
      cursors[j] = TapeRuns(tape, begin, period_s, end, pipeline, first + j * per_lane);
    }
  }

  int recomputed = 0;
  double* const vals = scratch.vals.data();
  block.vals = vals;
  block.lanes = kLanes;
  for (std::int64_t step = 0; step < per_lane; step += kSteps) {
    const int steps = static_cast<int>(std::min<std::int64_t>(kSteps, per_lane - step));
    // Pass 1 (per lane, per run): each power segment's raw shunt volts, once
    // per run of samples it covers, into the lane's interleaved slots.
    for (int j = 0; j < kLanes; ++j) {
      cursors[j].Fill(vals + j, kLanes, steps);
    }
    // Pass 2: every lane's draws, the lanes stepped together.
    if (draws > 0) {
      variant.lane_step(lanes, steps, dst);
    }
    // Pass 3 (element-wise): both channel kernels, then measured current x
    // measured rail -> power, straight to each lane's eighth of the window.
    block.n = steps * kLanes;
    for (int j = 0; j < kLanes; ++j) {
      block.out[j] = out + j * per_lane + step;
    }
    recomputed += variant.passes(block);
  }

  // The tail: lane 7 carries on serially, and its generator is where the
  // serial pipeline's would be.
  rng = lanes.Get(kLanes - 1);
  const auto tail = static_cast<int>(count - kLanes * per_lane);
  if (tail > 0) {
    block.n = tail;
    block.lanes = 1;
    block.out[0] = out + kLanes * per_lane;
    cursors[kLanes - 1].Fill(vals, 1, tail);
    if (draws > 0) {
      DrawSerial(rng, tail, dst, 1);
    }
    recomputed += variant.passes(block);
  }
  return recomputed;
}

}  // namespace block_passes

namespace {

// The pipeline of a config Daq can sample, or std::invalid_argument.
block_passes::Pipeline CheckedPipeline(const DaqConfig& config) {
  const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  if (!positive(config.sample_hz)) {
    throw std::invalid_argument("Daq: sample_hz must be finite and positive");
  }
  if (config.adc_bits < 1) {
    throw std::invalid_argument("Daq: adc_bits must be at least 1");
  }
  if (!positive(config.shunt_range_volts) || !positive(config.supply_range_volts)) {
    throw std::invalid_argument("Daq: ADC ranges must be finite and positive");
  }
  if (!positive(config.shunt_ohms) || !positive(config.supply_volts)) {
    throw std::invalid_argument("Daq: shunt_ohms and supply_volts must be finite and positive");
  }
  if (!std::isfinite(config.noise_lsb) || config.noise_lsb < 0.0) {
    throw std::invalid_argument("Daq: noise_lsb must be finite and non-negative");
  }
  const block_passes::Pipeline pipeline = block_passes::PipelineFor(config);
  for (const noise_kernel::AdcChannel& channel : {pipeline.shunt, pipeline.supply_rail}) {
    // 2^adc_bits overflows from 1024 bits on, and range / 2^adc_bits can
    // underflow; either leaves no step to quantise to.
    if (!std::isnormal(channel.lsb)) {
      throw std::invalid_argument("Daq: an ADC range over 2^adc_bits must be a normal number");
    }
    if (config.noise_lsb > 0.0 && channel.sigma == 0.0) {
      throw std::invalid_argument("Daq: noise_lsb rounds to no noise on a channel");
    }
  }
  return pipeline;
}

// The reading count of [begin, end) at `sample_hz`.
std::int64_t ReadingsIn(SimTime begin, SimTime end, double sample_hz) {
  const double period_s = 1.0 / sample_hz;
  return static_cast<std::int64_t>(std::floor((end - begin).ToSeconds() / period_s));
}

}  // namespace

Daq::Daq(const DaqConfig& config, Arena* arena)
    : config_(config), rng_(config.seed), pipeline_(CheckedPipeline(config)),
      samples_(NoInitArenaAllocator<double>(arena)) {}

// The two running sums of a fold, in sample order.
struct Daq::Sums {
  double dt;
  double joules = 0.0;
  double watts = 0.0;

  void Add(double p) {
    joules += p * dt;
    watts += p;
  }
  Totals Over(std::int64_t n) const {
    return {joules, n == 0 ? 0.0 : watts / static_cast<double>(n)};
  }
};

std::span<const double> Daq::SampleWindow(const PowerTape& tape, SimTime begin,
                                          SimTime end) {
  samples_.clear();
  if (end <= begin) {
    return {};
  }
  const std::int64_t count = ReadingsIn(begin, end, config_.sample_hz);
  samples_.resize(static_cast<std::size_t>(count));
  recomputed_ += block_passes::Sample(block_passes::Chosen(), pipeline_, tape, begin,
                                      1.0 / config_.sample_hz, 0, count, rng_, scratch_,
                                      samples_.data());
  DropCarry carry;
  ApplyDrops(samples_.data(), count, /*last=*/true, carry, nullptr);
  return {samples_.data(), samples_.size()};
}

Daq::Totals Daq::Measure(const PowerTape& tape, SimTime begin, SimTime end) {
  const double period_s = 1.0 / config_.sample_hz;
  Sums sums{period_s};
  if (end <= begin) {
    return sums.Over(0);
  }
  const std::int64_t count = ReadingsIn(begin, end, config_.sample_hz);
  samples_.resize(static_cast<std::size_t>(std::min(count, kChunkSamples)));
  DropCarry carry;
  // At least one chunk, so that a window too short for a reading still
  // rejects a tape without history, as SampleWindow does.
  std::int64_t first = 0;
  do {
    const std::int64_t n = std::min(kChunkSamples, count - first);
    recomputed_ += block_passes::Sample(block_passes::Chosen(), pipeline_, tape, begin, period_s,
                                        first, n, rng_, scratch_, samples_.data());
    first += n;
    const std::int64_t final_n = ApplyDrops(samples_.data(), n, first == count, carry, &sums);
    for (std::int64_t i = 0; i < final_n; ++i) {
      sums.Add(samples_[static_cast<std::size_t>(i)]);
    }
  } while (first < count);
  return sums.Over(count);
}

std::int64_t Daq::ApplyDrops(double* s, std::int64_t n, bool last, DropCarry& carry,
                             Sums* earlier) {
  if (faults_ == nullptr) {
    return n;
  }
  // Writes the open run's values, its right survivor being s[i] (none at
  // the window's end).  Its last min(open, i) samples are s's.
  const auto close = [&](std::int64_t i, const double* right) {
    const std::int64_t run = carry.open;
    const std::int64_t before = run - std::min(run, i);
    assert(before == 0 || earlier != nullptr);
    for (std::int64_t r = 0; r < run; ++r) {
      double v = 0.0;
      if (carry.has_left && right != nullptr) {
        const double frac = static_cast<double>(r + 1) / static_cast<double>(run + 1);
        v = carry.left + (*right - carry.left) * frac;
      } else if (carry.has_left) {
        v = carry.left;
      } else if (right != nullptr) {
        v = *right;
      }
      if (r < before) {
        earlier->Add(v);
      } else {
        s[i - run + r] = v;
      }
    }
    carry.open = 0;
  };
  for (std::int64_t i = 0; i < n; ++i) {
    if (faults_->DropSample()) {
      ++carry.open;
      ++dropped_samples_;
      continue;
    }
    if (carry.open > 0) {
      close(i, &s[i]);
    }
    carry.has_left = true;
    carry.left = s[i];
  }
  if (last && carry.open > 0) {
    close(n, nullptr);
  }
  return n - std::min(carry.open, n);
}

Daq::Totals Daq::Fold(std::span<const double> samples) const {
  Sums sums{1.0 / config_.sample_hz};
  for (const double p : samples) {
    sums.Add(p);
  }
  return sums.Over(static_cast<std::int64_t>(samples.size()));
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
