#include "src/hw/power_tape.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/daq/daq.h"
#include "src/sim/rng.h"

namespace dcs {
namespace {

TEST(PowerTapeTest, EmptyTape) {
  PowerTape tape;
  EXPECT_TRUE(tape.empty());
  EXPECT_EQ(tape.WattsAt(SimTime::Millis(5)), 0.0);
  EXPECT_EQ(tape.EnergyJoules(SimTime::Zero(), SimTime::Seconds(1)), 0.0);
}

TEST(PowerTapeTest, SingleSegmentExtendsForever) {
  PowerTape tape;
  tape.Set(SimTime::Zero(), 2.0);
  EXPECT_EQ(tape.WattsAt(SimTime::Zero()), 2.0);
  EXPECT_EQ(tape.WattsAt(SimTime::Seconds(100)), 2.0);
  EXPECT_DOUBLE_EQ(tape.EnergyJoules(SimTime::Zero(), SimTime::Seconds(3)), 6.0);
}

TEST(PowerTapeTest, BeforeFirstSegmentIsZeroPower) {
  PowerTape tape;
  tape.Set(SimTime::Seconds(1), 5.0);
  EXPECT_EQ(tape.WattsAt(SimTime::Millis(500)), 0.0);
  EXPECT_DOUBLE_EQ(tape.EnergyJoules(SimTime::Zero(), SimTime::Seconds(2)), 5.0);
}

TEST(PowerTapeTest, PiecewiseEnergyIntegration) {
  PowerTape tape;
  tape.Set(SimTime::Zero(), 1.0);
  tape.Set(SimTime::Seconds(1), 3.0);
  tape.Set(SimTime::Seconds(2), 0.5);
  // [0,1): 1 J, [1,2): 3 J, [2,4): 1 J -> 5 J.
  EXPECT_DOUBLE_EQ(tape.EnergyJoules(SimTime::Zero(), SimTime::Seconds(4)), 5.0);
}

TEST(PowerTapeTest, EnergyOverPartialWindow) {
  PowerTape tape;
  tape.Set(SimTime::Zero(), 2.0);
  tape.Set(SimTime::Seconds(10), 4.0);
  EXPECT_DOUBLE_EQ(tape.EnergyJoules(SimTime::Seconds(9), SimTime::Seconds(11)), 6.0);
}

TEST(PowerTapeTest, AverageWatts) {
  PowerTape tape;
  tape.Set(SimTime::Zero(), 1.0);
  tape.Set(SimTime::Seconds(1), 2.0);
  EXPECT_DOUBLE_EQ(tape.AverageWatts(SimTime::Zero(), SimTime::Seconds(2)), 1.5);
}

TEST(PowerTapeTest, EqualPowerSegmentsMerge) {
  PowerTape tape;
  tape.Set(SimTime::Zero(), 1.0);
  tape.Set(SimTime::Seconds(1), 1.0);
  EXPECT_EQ(tape.segments().size(), 1u);
}

TEST(PowerTapeTest, SameInstantUpdatesCollapse) {
  PowerTape tape;
  tape.Set(SimTime::Seconds(1), 1.0);
  tape.Set(SimTime::Seconds(2), 2.0);
  tape.Set(SimTime::Seconds(2), 3.0);
  ASSERT_EQ(tape.segments().size(), 2u);
  EXPECT_EQ(tape.WattsAt(SimTime::Seconds(2)), 3.0);
}

TEST(PowerTapeTest, SameInstantCollapseCanRemergeWithPrevious) {
  PowerTape tape;
  tape.Set(SimTime::Seconds(1), 1.0);
  tape.Set(SimTime::Seconds(2), 2.0);
  tape.Set(SimTime::Seconds(2), 1.0);  // back to the previous power
  EXPECT_EQ(tape.segments().size(), 1u);
  EXPECT_EQ(tape.WattsAt(SimTime::Seconds(3)), 1.0);
}

TEST(PowerTapeTest, EmptyOrInvertedWindowHasZeroEnergy) {
  PowerTape tape;
  tape.Set(SimTime::Zero(), 2.0);
  EXPECT_EQ(tape.EnergyJoules(SimTime::Seconds(2), SimTime::Seconds(2)), 0.0);
  EXPECT_EQ(tape.EnergyJoules(SimTime::Seconds(3), SimTime::Seconds(1)), 0.0);
  EXPECT_EQ(tape.AverageWatts(SimTime::Seconds(3), SimTime::Seconds(1)), 0.0);
}

TEST(PowerTapeTest, EnergyAdditiveOverAdjacentWindows) {
  PowerTape tape;
  tape.Set(SimTime::Zero(), 1.3);
  tape.Set(SimTime::Millis(700), 0.4);
  tape.Set(SimTime::Millis(1400), 2.2);
  const double whole = tape.EnergyJoules(SimTime::Zero(), SimTime::Seconds(2));
  const double first = tape.EnergyJoules(SimTime::Zero(), SimTime::Millis(900));
  const double second = tape.EnergyJoules(SimTime::Millis(900), SimTime::Seconds(2));
  EXPECT_NEAR(whole, first + second, 1e-12);
}

// Builds a random but reproducible tape: `count` Set calls at strictly
// increasing times, occasionally repeating the previous power so the
// merge path is exercised too.  Returns the final time.
SimTime BuildRandomTape(Rng& rng, PowerTape* tape, int count) {
  SimTime t = SimTime::Micros(rng.UniformInt(0, 100));
  double watts = rng.Uniform(0.1, 3.0);
  for (int i = 0; i < count; ++i) {
    if (rng.NextDouble() < 0.2) {
      // Keep the previous power: the tape must merge, not grow.
      tape->Set(t, watts);
    } else {
      watts = rng.Uniform(0.1, 3.0);
      tape->Set(t, watts);
    }
    t += SimTime::Micros(rng.UniformInt(1, 5'000));
  }
  return t;
}

// Property: over any window, EnergyJoules equals the sum of each stored
// segment's own integral (watts x clipped duration), for random tapes.
TEST(PowerTapePropertyTest, EnergyIsSumOfSegmentIntegrals) {
  Rng rng(0xDC5);
  for (int trial = 0; trial < 40; ++trial) {
    PowerTape tape;
    const SimTime last = BuildRandomTape(rng, &tape, 150);
    const SimTime begin = SimTime::Micros(rng.UniformInt(0, last.micros()));
    const SimTime end = begin + SimTime::Micros(rng.UniformInt(1, 2 * last.micros() + 1));
    const auto& segments = tape.segments();
    double manual = 0.0;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const SimTime seg_begin = std::max(segments[i].start, begin);
      const SimTime seg_end =
          std::min(i + 1 < segments.size() ? segments[i + 1].start : end, end);
      if (seg_end > seg_begin) {
        manual += segments[i].watts * (seg_end - seg_begin).ToSeconds();
      }
    }
    EXPECT_NEAR(tape.EnergyJoules(begin, end), manual, 1e-9) << "trial " << trial;
  }
}

// Property: re-stating the current power is a no-op — the merged tape has
// the same energy, watts and average over every probe window as if the
// redundant Set calls never happened.
TEST(PowerTapePropertyTest, RedundantSetsDoNotChangeTheRecord) {
  Rng rng(0xDC6);
  for (int trial = 0; trial < 20; ++trial) {
    PowerTape merged;
    PowerTape reference;
    SimTime t = SimTime::Micros(0);
    double watts = rng.Uniform(0.1, 3.0);
    for (int i = 0; i < 100; ++i) {
      watts = rng.NextDouble() < 0.5 ? rng.Uniform(0.1, 3.0) : watts;
      merged.Set(t, watts);
      reference.Set(t, watts);
      // Echo the same power at a later instant into `merged` only.
      t += SimTime::Micros(rng.UniformInt(1, 2'000));
      merged.Set(t, watts);
      t += SimTime::Micros(rng.UniformInt(1, 2'000));
    }
    EXPECT_LE(merged.segments().size(), reference.segments().size());
    for (int probe = 0; probe < 20; ++probe) {
      const SimTime a = SimTime::Micros(rng.UniformInt(0, t.micros()));
      const SimTime b = SimTime::Micros(rng.UniformInt(0, t.micros()));
      EXPECT_NEAR(merged.EnergyJoules(std::min(a, b), std::max(a, b)),
                  reference.EnergyJoules(std::min(a, b), std::max(a, b)), 1e-9);
      EXPECT_EQ(merged.WattsAt(a), reference.WattsAt(a));
    }
  }
}

// The pre-prefix-array implementation of EnergyJoules: a full scan over
// every stored segment.  The prefix-based version promises bitwise-identical
// results (it performs the same additions in the same order), so the
// differential below asserts exact equality, not a tolerance.
double NaiveScanEnergy(const PowerTape& tape, SimTime begin, SimTime end) {
  const auto& segments = tape.segments();
  if (segments.empty() || end <= begin) {
    return 0.0;
  }
  double joules = 0.0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SimTime seg_begin = std::max(segments[i].start, begin);
    const SimTime seg_end =
        std::min(i + 1 < segments.size() ? segments[i + 1].start : end, end);
    if (seg_end > seg_begin) {
      joules += segments[i].watts * (seg_end - seg_begin).ToSeconds();
    }
  }
  return joules;
}

// Builds a tape that exercises every Set() edge: merges, same-instant
// overwrites (collapse), and collapses that re-merge with the previous
// segment (the prefix_ pop_back path).
SimTime BuildCollapsingTape(Rng& rng, PowerTape* tape, int count) {
  SimTime t = SimTime::Micros(rng.UniformInt(0, 50));
  double watts = rng.Uniform(0.1, 3.0);
  tape->Set(t, watts);
  for (int i = 0; i < count; ++i) {
    const double roll = rng.NextDouble();
    if (roll < 0.25) {
      // Same-instant overwrite, possibly back to the previous power.
      const double prev = tape->segments().size() >= 2
                              ? tape->segments()[tape->segments().size() - 2].watts
                              : watts;
      watts = rng.NextDouble() < 0.4 ? prev : rng.Uniform(0.1, 3.0);
      tape->Set(t, watts);
    } else {
      t += SimTime::Micros(rng.UniformInt(1, 4'000));
      watts = roll < 0.45 ? watts : rng.Uniform(0.1, 3.0);
      tape->Set(t, watts);
    }
  }
  return t;
}

TEST(PowerTapePropertyTest, PrefixEnergyBitwiseMatchesNaiveScan) {
  Rng rng(0xDC8);
  for (int trial = 0; trial < 60; ++trial) {
    PowerTape tape;
    const SimTime last = BuildCollapsingTape(rng, &tape, 120);
    // Probe windows of every shape: from before the tape, starting exactly
    // at the first segment, mid-tape, and past the end.
    const SimTime first = tape.segments().front().start;
    for (int probe = 0; probe < 30; ++probe) {
      const SimTime a = SimTime::Micros(rng.UniformInt(0, last.micros() + 2'000));
      const SimTime b = SimTime::Micros(rng.UniformInt(0, last.micros() + 2'000));
      const SimTime begin = std::min(a, b);
      const SimTime end = std::max(a, b);
      EXPECT_EQ(tape.EnergyJoules(begin, end), NaiveScanEnergy(tape, begin, end))
          << "trial " << trial << " probe " << probe;
      if (end > begin) {
        EXPECT_EQ(tape.AverageWatts(begin, end),
                  NaiveScanEnergy(tape, begin, end) / (end - begin).ToSeconds());
      }
    }
    EXPECT_EQ(tape.EnergyJoules(SimTime::Zero(), last),
              NaiveScanEnergy(tape, SimTime::Zero(), last));
    EXPECT_EQ(tape.EnergyJoules(first, last), NaiveScanEnergy(tape, first, last));
    EXPECT_EQ(tape.EnergyJoules(first, first + SimTime::Micros(1)),
              NaiveScanEnergy(tape, first, first + SimTime::Micros(1)));
  }
}

TEST(PowerTapeTest, PrefixSurvivesSameInstantCollapseAndRemerge) {
  // Deterministic walk through the collapse edge cases, checking the energy
  // record after each mutation (a stale prefix entry would corrupt it).
  PowerTape tape;
  tape.Set(SimTime::Seconds(0), 1.0);
  tape.Set(SimTime::Seconds(1), 2.0);
  tape.Set(SimTime::Seconds(1), 3.0);  // collapse: overwrite open segment
  EXPECT_EQ(tape.EnergyJoules(SimTime::Zero(), SimTime::Seconds(2)),
            NaiveScanEnergy(tape, SimTime::Zero(), SimTime::Seconds(2)));
  EXPECT_DOUBLE_EQ(tape.EnergyJoules(SimTime::Zero(), SimTime::Seconds(2)), 4.0);
  tape.Set(SimTime::Seconds(1), 1.0);  // collapse + re-merge with segment 0
  ASSERT_EQ(tape.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(tape.EnergyJoules(SimTime::Zero(), SimTime::Seconds(2)), 2.0);
  tape.Set(SimTime::Seconds(3), 5.0);  // append after the pop_back path
  EXPECT_EQ(tape.EnergyJoules(SimTime::Zero(), SimTime::Seconds(4)),
            NaiveScanEnergy(tape, SimTime::Zero(), SimTime::Seconds(4)));
  EXPECT_DOUBLE_EQ(tape.EnergyJoules(SimTime::Zero(), SimTime::Seconds(4)), 8.0);
}

// The paper's 5 kHz DAQ pipeline, fed by random tapes with noise disabled,
// converges on the tape's analytic energy as the sample rate rises: the
// rectangle-rule error shrinks roughly linearly with the sample period.
TEST(PowerTapePropertyTest, DaqSamplingConvergesOnAnalyticEnergy) {
  Rng rng(0xDC7);
  for (int trial = 0; trial < 5; ++trial) {
    PowerTape tape;
    // Segment lengths ~2.5 ms on average, a realistic quantum-scale load.
    SimTime t = SimTime::Micros(0);
    for (int i = 0; i < 400; ++i) {
      tape.Set(t, rng.Uniform(0.1, 2.0));
      t += SimTime::Micros(rng.UniformInt(500, 5'000));
    }
    const SimTime begin = SimTime::Zero();
    const SimTime end = t;
    const double exact = tape.EnergyJoules(begin, end);
    ASSERT_GT(exact, 0.0);

    double previous_error = 0.0;
    bool first = true;
    for (const double hz : {5'000.0, 50'000.0, 500'000.0}) {
      DaqConfig config;
      config.sample_hz = hz;
      config.noise_lsb = 0.0;  // isolate the sampling error from ADC noise
      Daq daq(config);
      const double measured = daq.EnergyJoules(daq.SampleWindow(tape, begin, end));
      const double error = std::abs(measured - exact) / exact;
      if (first) {
        // The paper's 5 kHz rig lands within a few percent on quantum-scale
        // power activity (ADC quantisation included).
        EXPECT_LT(error, 0.05) << "trial " << trial;
        first = false;
      } else {
        // Each 10x rate increase must not make the estimate worse; at the
        // top rate the residual floor is ADC quantisation, not sampling.
        EXPECT_LT(error, std::max(previous_error, 2e-3)) << "hz=" << hz;
      }
      previous_error = error;
    }
    EXPECT_LT(previous_error, 2e-3);
  }
}

// --- History-free tapes -------------------------------------------------------

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Differential: random Set sequences through a full tape and a history-free
// one.  Time never runs backwards but often stands still, and the watts come
// from a three-value palette, so same-instant collapses, merges with the
// previous segment and collapses that re-merge with it are all frequent.
// After every Set the history-free tape must hold exactly the full tape's
// last two segments and answer EnergyJoules(0, t) and the open segment's
// watts with the same bits; a snapshot round trip midway changes nothing.
TEST(PowerTapePropertyTest, HistoryFreeTapeMatchesFullTapeBitwise) {
  const double palette[] = {0.7, 1.3, 2.9};
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    Rng rng(0x7A9E + trial);
    PowerTape full;
    PowerTape lean;
    lean.DropHistory();
    SimTime t = SimTime::Micros(rng.UniformInt(0, 3) * 250);
    const SimTime origin = t;
    std::uint64_t collapses = 0;
    for (int i = 0; i < 400; ++i) {
      if (i == 200) {
        SnapshotWriter w;
        SaveSnapshot(lean, &w);
        PowerTape restored;
        restored.DropHistory();
        SnapshotReader r(w);
        LoadSnapshot(restored, &r);
        ASSERT_TRUE(r.ok());
        ASSERT_TRUE(r.AtEnd());
        lean = restored;
      }
      if (rng.NextDouble() < 0.6) {
        t += SimTime::Micros(rng.UniformInt(1, 4'000));
      } else if (!full.empty() && full.segments().back().start == t) {
        ++collapses;
      }
      const double watts = palette[rng.UniformInt(0, 2)];
      full.Set(t, watts);
      lean.Set(t, watts);

      ASSERT_EQ(lean.size(), full.size()) << "trial " << trial << " step " << i;
      const auto& all = full.segments();
      const auto& kept = lean.segments();
      // Two segments, or one right after a collapse re-merged the open
      // segment into its predecessor.
      ASSERT_GE(kept.size(), 1u);
      ASSERT_LE(kept.size(), std::min<std::size_t>(all.size(), 2));
      for (std::size_t k = 0; k < kept.size(); ++k) {
        const PowerTape::Segment& want = all[all.size() - kept.size() + k];
        EXPECT_EQ(kept[k].start, want.start);
        EXPECT_EQ(Bits(kept[k].watts), Bits(want.watts));
      }
      EXPECT_EQ(Bits(lean.segments().back().watts), Bits(full.segments().back().watts));
      for (const SimTime end : {t, t + SimTime::Micros(1), t + SimTime::Millis(7)}) {
        EXPECT_EQ(Bits(lean.EnergyJoules(SimTime::Zero(), end)),
                  Bits(full.EnergyJoules(SimTime::Zero(), end)))
            << "trial " << trial << " step " << i;
        EXPECT_EQ(Bits(lean.EnergyJoules(origin, end)), Bits(full.EnergyJoules(origin, end)));
      }
      EXPECT_EQ(Bits(lean.WattsAt(t)), Bits(full.WattsAt(t)));
    }
    EXPECT_GT(collapses, 0u) << "trial " << trial << " never collapsed";
    EXPECT_GT(full.segments().size(), 2u);
  }
}

// Dropping the history of a tape that already holds many segments keeps
// the last two and the running total.
TEST(PowerTapeTest, DropHistoryKeepsTheRunningTotal) {
  Rng rng(0xD209);
  PowerTape full;
  const SimTime last = BuildRandomTape(rng, &full, 100);
  PowerTape lean = full;
  lean.DropHistory();
  EXPECT_FALSE(lean.keeps_history());
  EXPECT_EQ(lean.segments().size(), 2u);
  EXPECT_EQ(lean.size(), full.size());
  EXPECT_EQ(Bits(lean.EnergyJoules(SimTime::Zero(), last)),
            Bits(full.EnergyJoules(SimTime::Zero(), last)));
  lean.Set(last, 9.0);
  full.Set(last, 9.0);
  EXPECT_EQ(Bits(lean.EnergyJoules(SimTime::Zero(), last + SimTime::Seconds(1))),
            Bits(full.EnergyJoules(SimTime::Zero(), last + SimTime::Seconds(1))));
}

// A history-free tape answers only what its retained segments determine.
// Everything else throws rather than answering from a partial record.
TEST(PowerTapeTest, HistoryFreeTapeRefusesWhatItDropped) {
  PowerTape lean;
  lean.DropHistory();
  lean.Set(SimTime::Seconds(1), 1.0);
  lean.Set(SimTime::Seconds(2), 2.0);
  lean.Set(SimTime::Seconds(3), 3.0);  // shifts the 1 s segment out
  ASSERT_EQ(lean.segments().front().start, SimTime::Seconds(2));

  // Answerable: before the origin, inside the retained segments, and any
  // window from the start that closes inside them.
  EXPECT_EQ(lean.WattsAt(SimTime::Millis(500)), 0.0);
  EXPECT_EQ(lean.WattsAt(SimTime::Millis(2'500)), 2.0);
  EXPECT_DOUBLE_EQ(lean.EnergyJoules(SimTime::Zero(), SimTime::Seconds(4)), 6.0);
  EXPECT_DOUBLE_EQ(lean.EnergyJoules(SimTime::Seconds(2), SimTime::Seconds(4)), 5.0);
  EXPECT_EQ(lean.EnergyJoules(SimTime::Zero(), SimTime::Millis(900)), 0.0);

  // Not answerable: anything that needs the dropped 1 s segment.
  EXPECT_THROW(lean.WattsAt(SimTime::Millis(1'500)), std::logic_error);
  EXPECT_THROW(lean.EnergyJoules(SimTime::Zero(), SimTime::Millis(1'500)), std::logic_error);
  EXPECT_THROW(lean.EnergyJoules(SimTime::Millis(1'500), SimTime::Seconds(4)),
               std::logic_error);
  EXPECT_THROW(lean.AverageWatts(SimTime::Millis(1'500), SimTime::Seconds(4)),
               std::logic_error);

  // A collapse can reach the dropped segment only if time ran backwards.
  lean.Set(SimTime::Seconds(3), 2.0);  // re-merges with the 2 s segment
  ASSERT_EQ(lean.segments().size(), 1u);
  EXPECT_THROW(lean.Set(SimTime::Seconds(2), 1.0), std::logic_error);
}

// Images carry the mode: a full tape's image does not load into a
// history-free tape or the other way round, and a history-free image
// claiming more than two segments fails.
TEST(PowerTapeTest, SnapshotModeMismatchFails) {
  PowerTape full;
  full.Set(SimTime::Zero(), 1.0);
  full.Set(SimTime::Seconds(1), 2.0);
  full.Set(SimTime::Seconds(2), 3.0);
  SnapshotWriter full_image;
  SaveSnapshot(full, &full_image);
  PowerTape lean;
  lean.DropHistory();
  SnapshotReader r(full_image);
  LoadSnapshot(lean, &r);
  EXPECT_FALSE(r.ok());

  PowerTape lean_source;
  lean_source.DropHistory();
  lean_source.Set(SimTime::Zero(), 1.0);
  SnapshotWriter lean_image;
  SaveSnapshot(lean_source, &lean_image);
  PowerTape other;
  SnapshotReader r2(lean_image);
  LoadSnapshot(other, &r2);
  EXPECT_FALSE(r2.ok());
}

}  // namespace
}  // namespace dcs
