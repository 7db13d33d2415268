// Batched-vs-reference differential property suite for the DAQ.
//
// The batched sampling pipeline (Daq::SampleWindow) walks the tape by runs
// and restructures the per-sample loop into contiguous-array passes for the
// auto-vectoriser; its contract is *bitwise* equality with the scalar
// reference pipeline kept in tests/support/reference_daq.h.  This suite
// hammers that contract across randomized power tapes, every
// noise/rate/resolution combination the experiments use, window edge cases,
// the run walk's boundaries, and fault-injected sample drops.

#include "src/daq/daq.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/hw/power_tape.h"
#include "src/sim/arena.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"
#include "tests/support/reference_daq.h"

namespace dcs {
namespace {

// A tape with `segments` random power levels at randomly jittered times.
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

// Runs both pipelines over the same window and asserts bitwise equality.
void ExpectBitwiseEqual(const DaqConfig& config, const PowerTape& tape, SimTime begin,
                        SimTime end, const std::string& label) {
  testing::ReferenceDaq scalar(config);
  Daq batched(config);
  const std::span<const double> a = scalar.SampleWindow(tape, begin, end);
  const std::span<const double> b = batched.SampleWindow(tape, begin, end);

  ASSERT_EQ(a.size(), b.size()) << label;
  if (!a.empty()) {
    // memcmp, not ==: the contract is bit-for-bit, not merely value-equal.
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << label << ": batched pipeline diverged from the scalar reference";
  }
}

TEST(DaqSoaPropertyTest, BatchedMatchesScalarAcrossConfigGrid) {
  const double noise_grid[] = {0.0, 0.5, 1.0, 3.0};
  const double rate_grid[] = {1000.0, 5000.0, 44100.0};
  const int bits_grid[] = {8, 12, 16};
  int case_index = 0;
  for (const double noise : noise_grid) {
    for (const double rate : rate_grid) {
      for (const int bits : bits_grid) {
        DaqConfig config;
        config.noise_lsb = noise;
        config.sample_hz = rate;
        config.adc_bits = bits;
        config.seed = 0x0DA05EEDULL + static_cast<std::uint64_t>(case_index);
        const PowerTape tape =
            RandomTape(1000 + static_cast<std::uint64_t>(case_index), 200);
        ExpectBitwiseEqual(config, tape, SimTime::Millis(1), SimTime::Millis(400),
                           "noise=" + std::to_string(noise) + " hz=" + std::to_string(rate) +
                               " bits=" + std::to_string(bits));
        ++case_index;
      }
    }
  }
}

TEST(DaqSoaPropertyTest, BatchedMatchesScalarOnRandomTapes) {
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    Rng rng(0xC0FFEE00 + trial);
    DaqConfig config;
    config.sample_hz = rng.Uniform(500.0, 20000.0);
    config.noise_lsb = rng.Uniform(0.0, 4.0);
    config.adc_bits = static_cast<int>(rng.UniformInt(6, 16));
    config.seed = rng.Next();
    const PowerTape tape = RandomTape(rng.Next(), static_cast<int>(rng.UniformInt(1, 400)));
    const SimTime begin = SimTime::Micros(rng.UniformInt(0, 2000));
    const SimTime end = begin + SimTime::Micros(rng.UniformInt(1, 300000));
    ExpectBitwiseEqual(config, tape, begin, end, "trial " + std::to_string(trial));
  }
}

TEST(DaqSoaPropertyTest, WindowEdgeCases) {
  const PowerTape tape = RandomTape(7, 50);
  DaqConfig config;
  // Empty window.
  ExpectBitwiseEqual(config, tape, SimTime::Millis(5), SimTime::Millis(5), "empty");
  // Window entirely before the first segment (cursor returns 0.0).
  ExpectBitwiseEqual(config, tape, SimTime::Nanos(0), SimTime::Micros(400), "pre-tape");
  // Window extending far past the last segment.
  ExpectBitwiseEqual(config, tape, SimTime::Millis(10), SimTime::Seconds(2), "post-tape");
  // Exactly one sample; exactly one batch; one past a batch boundary.
  const double period_us = 200.0;  // 5 kHz
  ExpectBitwiseEqual(config, tape, SimTime::Millis(1),
                     SimTime::Millis(1) + SimTime::FromMicrosF(period_us * 1.5), "1 sample");
  ExpectBitwiseEqual(config, tape, SimTime::Millis(1),
                     SimTime::Millis(1) + SimTime::FromMicrosF(period_us * 2048), "1 batch");
  ExpectBitwiseEqual(config, tape, SimTime::Millis(1),
                     SimTime::Millis(1) + SimTime::FromMicrosF(period_us * 2049.5),
                     "batch + 1");
  // Zero-noise and zero-range (sigma==0 on one channel only) variants.
  DaqConfig no_shunt_noise;
  no_shunt_noise.shunt_range_volts = 0.0;
  ExpectBitwiseEqual(no_shunt_noise, tape, SimTime::Millis(1), SimTime::Millis(200),
                     "shunt sigma 0");
  DaqConfig no_supply_noise;
  no_supply_noise.supply_range_volts = 0.0;
  ExpectBitwiseEqual(no_supply_noise, tape, SimTime::Millis(1), SimTime::Millis(200),
                     "supply sigma 0");
  // A tape without history cannot be sampled: both pipelines throw, even
  // for a window shorter than one period, and an empty window reads nothing.
  PowerTape lean = RandomTape(7, 50);
  lean.DropHistory();
  Daq batched(config);
  testing::ReferenceDaq scalar(config);
  const SimTime from = SimTime::Millis(1);
  for (const SimTime to : {SimTime::Millis(2), from + SimTime::Nanos(1)}) {
    EXPECT_THROW(batched.SampleWindow(lean, from, to), std::logic_error);
    EXPECT_THROW(scalar.SampleWindow(lean, from, to), std::logic_error);
  }
  EXPECT_TRUE(batched.SampleWindow(lean, from, from).empty());
  EXPECT_TRUE(scalar.SampleWindow(lean, from, from).empty());
}

// The batched pipeline reads the tape one segment run at a time: it
// estimates where each run ends, then corrects the estimate against the
// exact instant expression begin + FromSecondsF(k / hz).  These tapes put
// segment starts exactly on that expression's values and one nanosecond to
// either side of them, so a run end off by one sample in either direction
// changes a reading.  44.1 kHz and 3 kHz have periods that are not a whole
// number of nanoseconds, so FromSecondsF's rounding decides where their runs
// end.  Each tape runs with and without noise.
TEST(DaqSoaPropertyTest, RunWalkBoundariesMatchReference) {
  // Sample indices where a segment starts: runs of 1, 2, 4 and more
  // samples, and runs ending just before, on and after the 2048-sample
  // batch boundaries or crossing them.
  const std::int64_t starts[] = {3, 4, 6, 10, 37, 100, 1000, 2047, 2048,
                                 2049, 2100, 4095, 4097, 4200, 8500};
  for (const double hz : {5000.0, 44100.0, 3000.0}) {
    const double period_s = 1.0 / hz;
    const SimTime begin = SimTime::Micros(1500);
    const auto at = [&](std::int64_t k) { return begin + SimTime::FromSecondsF(k * period_s); };
    const SimTime end = at(9000) + SimTime::Nanos(1);
    DaqConfig noisy;
    noisy.sample_hz = hz;
    DaqConfig quiet = noisy;
    quiet.noise_lsb = 0.0;
    const auto check = [&](const PowerTape& tape, SimTime from, SimTime to,
                           const std::string& label) {
      const std::string rate = " hz=" + std::to_string(hz);
      ExpectBitwiseEqual(noisy, tape, from, to, label + rate + " noisy");
      ExpectBitwiseEqual(quiet, tape, from, to, label + rate + " quiet");
    };

    // Starts on a sample instant, 1 ns before and 1 ns after.  The first
    // segment starts after sample 0, so the window opens before the tape.
    for (const std::int64_t offset_ns : {-1, 0, 1}) {
      PowerTape tape;
      int level = 0;
      for (const std::int64_t k : starts) {
        tape.Set(at(k) + SimTime::Nanos(offset_ns), 0.25 + 0.37 * (level++ % 7));
      }
      check(tape, begin, end, "offset " + std::to_string(offset_ns) + " ns");
      // The same tape from a window that opens mid-segment.
      check(tape, at(50) + SimTime::Nanos(37), end, "mid-segment, offset " +
                                                        std::to_string(offset_ns) + " ns");
    }

    // Several segments inside one sample period, around a batch boundary
    // too; only the last one before the next instant is ever read.
    {
      PowerTape tape;
      tape.Set(SimTime::Zero(), 0.5);
      int level = 0;
      for (const std::int64_t k : {5, 6, 2047, 2048}) {
        const SimTime step = (at(k + 1) - at(k)) / 5;
        for (int m = 0; m < 5; ++m) {
          tape.Set(at(k) + step * m, 1.0 + 0.3 * (level++ % 5));
        }
      }
      check(tape, begin, end, "segments within one period");
    }

    // Same-instant Sets collapse to the last; a collapse back to the
    // previous level merges the two segments.
    {
      PowerTape tape;
      tape.Set(SimTime::Zero(), 0.7);
      tape.Set(at(20), 1.9);
      tape.Set(at(20), 2.4);
      tape.Set(at(2048), 1.1);
      tape.Set(at(2048), 2.4);  // merges back into the segment at sample 20
      tape.Set(at(2049) + SimTime::Nanos(1), 2.2);
      tape.Set(at(2049) + SimTime::Nanos(1), 2.3);
      tape.Set(at(3000), 0.4);
      ASSERT_EQ(tape.segments().size(), 4u);
      check(tape, begin, end, "same-instant collapse");
    }

    // A one-segment tape, from a window before it and one inside it.
    {
      PowerTape tape;
      tape.Set(at(700) - SimTime::Nanos(1), 1.3);
      check(tape, begin, end, "one segment, window before it");
      check(tape, at(900), end, "one segment, window inside it");
    }
  }
}

TEST(DaqSoaPropertyTest, BatchedMatchesScalarUnderFaultDrops) {
  for (const char* spec : {"daq-drop=0.05", "daq-drop=0.5", "storm=0.3"}) {
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::Parse(spec, &plan, &error)) << spec << ": " << error;

    const PowerTape tape = RandomTape(21, 300);
    DaqConfig config;
    testing::ReferenceDaq scalar(config);
    Daq batched(config);

    // Each pipeline gets its own injector at the same seed: the drop stream
    // is isolated per fault class, so both see identical drop decisions.
    FaultInjector scalar_faults(plan, /*seed=*/11);
    FaultInjector batched_faults(plan, /*seed=*/11);
    scalar.BindFaults(&scalar_faults);
    batched.BindFaults(&batched_faults);

    const std::span<const double> a =
        scalar.SampleWindow(tape, SimTime::Millis(1), SimTime::Millis(500));
    const std::span<const double> b =
        batched.SampleWindow(tape, SimTime::Millis(1), SimTime::Millis(500));
    ASSERT_EQ(a.size(), b.size()) << spec;
    ASSERT_FALSE(a.empty()) << spec;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0) << spec;
    EXPECT_EQ(scalar.dropped_samples(), batched.dropped_samples()) << spec;
    if (std::string(spec) == "daq-drop=0.5") {
      EXPECT_GT(batched.dropped_samples(), 0u) << "drop plan never triggered";
    }
  }
}

TEST(DaqSoaPropertyTest, WrapperAndArenaBindingPreserveSamples) {
  const PowerTape tape = RandomTape(33, 100);
  const SimTime begin = SimTime::Millis(2);
  const SimTime end = SimTime::Millis(300);

  DaqConfig config;
  Daq window_daq(config);
  const std::span<const double> window = window_daq.SampleWindow(tape, begin, end);
  const std::vector<double> window_copy(window.begin(), window.end());

  // Arena-backed sampling is byte-identical to heap-backed sampling.
  Arena arena;
  Daq arena_daq(config, &arena);
  const std::span<const double> arena_samples = arena_daq.SampleWindow(tape, begin, end);
  ASSERT_EQ(arena_samples.size(), window_copy.size());
  EXPECT_EQ(std::memcmp(arena_samples.data(), window_copy.data(),
                        arena_samples.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace dcs
