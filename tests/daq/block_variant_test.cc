// Every ISA variant of the batched DAQ's element-wise passes
// (src/daq/block_passes.h) against the scalar reference pipeline, bit for
// bit.
//
// The process only ever runs one variant, the widest its CPU supports, so
// the SoA property suite covers that one alone.  Here each variant the host
// can run is driven directly: the test computes each sample's raw shunt
// volts from a tape cursor, draws the uniforms in stream order as
// Daq::SampleBatched does, hands the blocks to the variant, and compares the
// samples with the scalar reference pipeline (tests/support/reference_daq.h).
// A variant the host cannot run is skipped by name, so the log shows what
// was covered.

#include "src/daq/block_passes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
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

// Daq::SampleBatched's block size.
constexpr int kBatch = 2048;

struct VariantRun {
  std::vector<double> samples;
  int recomputed = 0;
};

// The batched pipeline over [begin, end) with `passes` as its element-wise
// passes.  The block comes in as raw shunt volts, one cursor read per
// sample; the draws are Daq::SampleBatched's, in stream order.
VariantRun SampleWithVariant(PassesFn passes, const DaqConfig& config, const PowerTape& tape,
                             SimTime begin, SimTime end) {
  const double period_s = 1.0 / config.sample_hz;
  const std::int64_t count =
      static_cast<std::int64_t>(std::floor((end - begin).ToSeconds() / period_s));
  const double steps = std::pow(2.0, config.adc_bits);
  const double shunt_lsb = 2.0 * config.shunt_range_volts / steps;
  const double supply_lsb = config.supply_range_volts / steps;

  std::vector<double> supply(kBatch), u1(kBatch), u2(kBatch), u3(kBatch), u4(kBatch);
  Block block{};
  block.supply = supply.data();
  block.u1 = u1.data();
  block.u2 = u2.data();
  block.u3 = u3.data();
  block.u4 = u4.data();
  block.supply_volts = config.supply_volts;
  block.shunt_ohms = config.shunt_ohms;
  block.shunt = {config.noise_lsb * shunt_lsb, -config.shunt_range_volts,
                 config.shunt_range_volts, shunt_lsb};
  block.supply_rail = {config.noise_lsb * supply_lsb, 0.0, config.supply_range_volts,
                       supply_lsb};
  const bool shunt_noise = block.shunt.sigma != 0.0;
  const bool supply_noise = block.supply_rail.sigma != 0.0;

  VariantRun run;
  run.samples.resize(static_cast<std::size_t>(std::max<std::int64_t>(count, 0)));
  Rng rng(config.seed);
  for (std::int64_t base = 0; base < count; base += kBatch) {
    const int n = static_cast<int>(std::min<std::int64_t>(kBatch, count - base));
    block.vals = run.samples.data() + base;
    block.n = n;
    for (int i = 0; i < n; ++i) {
      const double watts = tape.WattsAt(begin + SimTime::FromSecondsF((base + i) * period_s));
      block.vals[i] = (watts / config.supply_volts) * config.shunt_ohms;
    }
    for (int i = 0; i < n; ++i) {
      if (shunt_noise) {
        u1[i] = rng.NextDouble();
        u2[i] = rng.NextDouble();
      }
      if (supply_noise) {
        u3[i] = rng.NextDouble();
        u4[i] = rng.NextDouble();
      }
    }
    run.recomputed += passes(block);
  }
  return run;
}

// The scalar reference pipeline's samples over the same window.
std::vector<double> ReferenceSamples(const DaqConfig& config, const PowerTape& tape,
                                     SimTime begin, SimTime end) {
  testing::ReferenceDaq daq(config);
  const std::span<const double> window = daq.SampleWindow(tape, begin, end);
  return std::vector<double>(window.begin(), window.end());
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
  // the variant's samples equal the scalar reference's bit for bit and its
  // recompute count equals the baseline's.  Returns the recompute count.
  int ExpectMatchesReference(const DaqConfig& config, const PowerTape& tape, SimTime begin,
                             SimTime end, const std::string& label) {
    const VariantRun run = SampleWithVariant(PassesFor(GetParam()), config, tape, begin, end);
    const VariantRun baseline =
        SampleWithVariant(PassesFor(Isa::kBaseline), config, tape, begin, end);
    const std::vector<double> expected = ReferenceSamples(config, tape, begin, end);
    EXPECT_EQ(run.samples.size(), expected.size()) << label;
    if (run.samples.size() == expected.size() && !expected.empty()) {
      // memcmp, not ==: the contract is bit for bit, signed zeros included.
      EXPECT_EQ(std::memcmp(run.samples.data(), expected.data(),
                            expected.size() * sizeof(double)),
                0)
          << label << ": " << IsaName(GetParam()) << " diverged from the scalar reference";
    }
    EXPECT_EQ(run.recomputed, baseline.recomputed) << label;
    return run.recomputed;
  }
};

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
// polynomial noise on its own draws lands the shunt reading exactly on a
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
        const double noise = 0.0 + sigma *
                                       std::sqrt(-2.0 * noise_kernel::LnKernel(
                                                            std::max(u1, 1e-300))) *
                                       noise_kernel::Cos2PiKernel(u2);
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
  EXPECT_STREQ(Daq::IsaVariant(), IsaName(widest));
  std::printf("DAQ block passes run the %s variant\n", Daq::IsaVariant());
}

}  // namespace
}  // namespace block_passes
}  // namespace dcs
