// Every ISA variant of the batched DAQ's lane step and element-wise passes
// (src/daq/block_passes.h) against the scalar reference pipeline, bit for
// bit.
//
// The process only ever runs one variant, the widest its CPU supports, so
// the SoA property suite covers that one alone.  Here each variant the host
// can run samples whole windows through block_passes::Sample, the function
// Daq::SampleWindow calls with the chosen variant, and the samples and the
// generator's end state are compared with the scalar reference pipeline
// (tests/support/reference_daq.h).  The lane step is also checked on its own
// against serial draws.  A variant the host cannot run is skipped by name,
// so the log shows what was covered.

#include "src/daq/block_passes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/daq/daq.h"
#include "src/daq/noise_kernel.h"
#include "src/hw/power_tape.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"
#include "tests/support/reference_daq.h"

namespace dcs {
namespace block_passes {
namespace {

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

struct VariantRun {
  std::vector<double> samples;
  int recomputed = 0;
  std::uint64_t next_draw = 0;  // the generator's next draw after the window
};

// The batched pipeline over [begin, end) through `isa`'s variant.
VariantRun SampleWithVariant(Isa isa, const DaqConfig& config, const PowerTape& tape,
                             SimTime begin, SimTime end) {
  const double period_s = 1.0 / config.sample_hz;
  const std::int64_t count =
      static_cast<std::int64_t>(std::floor((end - begin).ToSeconds() / period_s));
  const auto scratch = std::make_unique<Scratch>();
  VariantRun run;
  run.samples.resize(static_cast<std::size_t>(std::max<std::int64_t>(count, 0)));
  Rng rng(config.seed);
  run.recomputed = Sample(isa, PipelineFor(config), tape, begin, period_s, 0, count, rng,
                          *scratch, run.samples.data());
  run.next_draw = rng.Next();
  return run;
}

// The scalar reference pipeline's samples over the same window.
std::vector<double> ReferenceSamples(const DaqConfig& config, const PowerTape& tape,
                                     SimTime begin, SimTime end) {
  testing::ReferenceDaq daq(config);
  const std::span<const double> window = daq.SampleWindow(tape, begin, end);
  return std::vector<double>(window.begin(), window.end());
}

// The draw after `n` samples of `config`'s stream, four draws per sample
// when both channels are noisy.
std::uint64_t SerialNextDraw(const DaqConfig& config, std::size_t n, int draws_per_sample) {
  Rng rng(config.seed);
  for (std::size_t i = 0; i < n * static_cast<std::size_t>(draws_per_sample); ++i) {
    rng.Next();
  }
  return rng.Next();
}

PowerTape RandomTape(std::uint64_t seed, int segments) {
  Rng rng(seed);
  PowerTape tape;
  SimTime t = SimTime::Micros(rng.UniformInt(0, 500));
  for (int i = 0; i < segments; ++i) {
    tape.Set(t, rng.Uniform(0.0, 3.0));
    t = t + SimTime::Micros(rng.UniformInt(1, 4000));
  }
  return tape;
}

class BlockVariantTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!Runnable(GetParam())) {
      GTEST_SKIP() << "the " << IsaName(GetParam())
                   << " variant is not runnable here (not compiled, or the CPU lacks it)";
    }
  }

  // Runs the variant under test and the baseline over one window; asserts
  // the variant's samples equal the scalar reference's bit for bit, its
  // generator ends where the serial stream does, and its recompute count
  // equals the baseline's.  Returns the recompute count.
  int ExpectMatchesReference(const DaqConfig& config, const PowerTape& tape, SimTime begin,
                             SimTime end, const std::string& label) {
    const VariantRun run = SampleWithVariant(GetParam(), config, tape, begin, end);
    const VariantRun baseline = SampleWithVariant(Isa::kBaseline, config, tape, begin, end);
    const std::vector<double> expected = ReferenceSamples(config, tape, begin, end);
    EXPECT_EQ(run.samples.size(), expected.size()) << label;
    if (run.samples.size() == expected.size() && !expected.empty()) {
      // memcmp, not ==: the contract is bit for bit, signed zeros included.
      EXPECT_EQ(std::memcmp(run.samples.data(), expected.data(),
                            expected.size() * sizeof(double)),
                0)
          << label << ": " << IsaName(GetParam()) << " diverged from the scalar reference";
    }
    const int draws = config.noise_lsb == 0.0 ? 0 : 4;
    EXPECT_EQ(run.next_draw, SerialNextDraw(config, expected.size(), draws)) << label;
    EXPECT_EQ(run.recomputed, baseline.recomputed) << label;
    return run.recomputed;
  }
};

// The lane step alone: eight generators at unrelated states, stepped
// together, against each one's serial NextDouble draws and end state.
TEST_P(BlockVariantTest, LaneStepMatchesSerialDraws) {
  const LaneStepFn lane_step = VariantFor(GetParam()).lane_step;
  for (const int steps : {1, 7, kSteps}) {
    RngLanes lanes;
    std::vector<Rng> serial;
    for (int j = 0; j < kLanes; ++j) {
      serial.emplace_back(0x1A4E0000ULL + static_cast<std::uint64_t>(17 * j + kDraws));
      lanes.Set(j, serial.back());
    }
    std::vector<std::vector<double>> out(kDraws, std::vector<double>(kBatch, -1.0));
    double* dst[kDraws] = {out[0].data(), out[1].data(), out[2].data(), out[3].data()};
    lane_step(lanes, steps, dst);
    std::vector<std::vector<double>> expected(kDraws, std::vector<double>(kBatch, -1.0));
    for (int s = 0; s < steps; ++s) {
      for (int j = 0; j < kLanes; ++j) {
        for (int q = 0; q < kDraws; ++q) {
          expected[q][static_cast<std::size_t>(s * kLanes + j)] = serial[j].NextDouble();
        }
      }
    }
    for (int q = 0; q < kDraws; ++q) {
      EXPECT_EQ(std::memcmp(out[q].data(), expected[q].data(), kBatch * sizeof(double)), 0)
          << IsaName(GetParam()) << " steps " << steps << " dst " << q;
    }
    for (int j = 0; j < kLanes; ++j) {
      EXPECT_EQ(lanes.Get(j).Next(), serial[j].Next())
          << IsaName(GetParam()) << " lane " << j << " end state";
    }
  }
}

TEST_P(BlockVariantTest, MatchesScalarReferenceOnRandomTapes) {
  int trial = 0;
  for (const double noise_lsb : {0.0, 0.5, 1.0, 3.0, 40.0}) {
    for (const int bits : {12, 16}) {
      for (int tape_index = 0; tape_index < 3; ++tape_index, ++trial) {
        DaqConfig config;
        config.noise_lsb = noise_lsb;
        config.adc_bits = bits;
        config.seed = 0xB10C0000ULL + static_cast<std::uint64_t>(trial);
        const PowerTape tape = RandomTape(0x7A9E00ULL + static_cast<std::uint64_t>(trial), 300);
        // 1.2 s at 5 kHz: 6000 samples, so two full blocks and a partial one.
        ExpectMatchesReference(config, tape, SimTime::Millis(1), SimTime::Millis(1201),
                               "noise " + std::to_string(noise_lsb) + " bits " +
                                   std::to_string(bits) + " tape " +
                                   std::to_string(tape_index));
      }
    }
  }
}

// The half-LSB ties of tests/daq/noise_kernel_test.cc, sample by sample
// through whole windows: each sample's true power is placed where the
// screened noise on its own draws lands the shunt reading exactly on a
// rounding boundary, so every sample takes the exact recompute.  With a
// 2 V rail and a 0.5 ohm shunt, watts -> volts is w / 4, exact, so the
// placement survives the pipeline.
TEST_P(BlockVariantTest, HalfLsbTiesTakeTheExactRecompute) {
  for (const double noise_lsb : {0.5, 1.0, 3.0, 40.0}) {
    for (const int bits : {12, 16}) {
      DaqConfig config;
      config.noise_lsb = noise_lsb;
      config.adc_bits = bits;
      config.supply_volts = 2.0;
      config.shunt_ohms = 0.5;
      config.seed = 0x71E5ULL + static_cast<std::uint64_t>(bits);
      const double lsb = 2.0 * config.shunt_range_volts / std::pow(2.0, bits);
      const double sigma = noise_lsb * lsb;
      const double period_s = 1.0 / config.sample_hz;
      const SimTime begin = SimTime::Millis(1);
      constexpr int kSamples = 2 * kBatch + 100;
      // Each sample draws its shunt pair, then its supply pair.
      Rng draws(config.seed);
      PowerTape tape;
      for (int i = 0; i < kSamples; ++i) {
        const double u1 = draws.NextDouble();
        const double u2 = draws.NextDouble();
        draws.NextDouble();
        draws.NextDouble();
        const float mag = std::sqrt(-2.0f * noise_kernel::LnScreen(std::max(u1, 1e-300)));
        const double noise =
            0.0 + sigma * static_cast<double>(mag * noise_kernel::Cos2PiScreen(u2));
        const double k = static_cast<double>(i % 61 - 30);
        const double raw = (k + 0.5) * lsb - noise;
        tape.Set(begin + SimTime::FromSecondsF(i * period_s), 4.0 * raw);
      }
      const SimTime end = begin + SimTime::FromSecondsF((kSamples + 0.5) * period_s);
      const int recomputed =
          ExpectMatchesReference(config, tape, begin, end,
                                 "ties, noise " + std::to_string(noise_lsb) + " bits " +
                                     std::to_string(bits));
      EXPECT_GE(recomputed, kSamples) << "noise " << noise_lsb << " bits " << bits;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, BlockVariantTest, ::testing::ValuesIn(kAllIsas),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           std::string name = IsaName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(BlockVariantSelectionTest, ChosenIsTheWidestRunnableVariant) {
  EXPECT_TRUE(Runnable(Isa::kBaseline));
  Isa widest = Isa::kBaseline;
  for (const Isa isa : kAllIsas) {
    if (Runnable(isa)) {
      widest = isa;
    }
  }
  EXPECT_EQ(Chosen(), widest);
  std::printf("DAQ block passes run the %s variant\n", IsaName(Chosen()));
}

}  // namespace
}  // namespace block_passes
}  // namespace dcs
