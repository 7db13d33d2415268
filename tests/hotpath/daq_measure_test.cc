// Daq::Measure against Fold(SampleWindow(...)), bit for bit.
//
// Measure samples a window in fixed chunks of Daq::kChunkSamples readings
// and folds each chunk as it goes, carrying a dropped run that is still
// open at a chunk's end.  Its contract is the whole-window path's: the same
// energy and mean-power bits, and the generator, the drop count and the
// recompute count where SampleWindow leaves them.  The windows here cut
// segments and dropped runs at chunk edges, end on a count % 8 tail, fit
// inside one chunk or fill whole chunks, and drop every sample of a chunk
// or of the window.  The recompute count of one fixed long window is pinned,
// so a change to the noise screens' margins fails as a count.

#include "src/daq/daq.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/hw/power_tape.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"
#include "tests/support/reference_daq.h"

namespace dcs {
namespace {

constexpr std::int64_t kChunk = Daq::kChunkSamples;

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// A tape with `segments` random power levels at randomly jittered times.
PowerTape RandomTape(std::uint64_t seed, int segments, int max_gap_us = 4000) {
  Rng rng(seed);
  PowerTape tape;
  SimTime t = SimTime::Micros(rng.UniformInt(0, 500));
  for (int i = 0; i < segments; ++i) {
    tape.Set(t, rng.Uniform(0.0, 3.0));
    t = t + SimTime::Micros(rng.UniformInt(1, max_gap_us));
  }
  return tape;
}

// Reading k's instant, as both entry points compute it.
SimTime At(SimTime begin, const DaqConfig& config, std::int64_t k) {
  return begin + SimTime::FromSecondsF(k * (1.0 / config.sample_hz));
}

// A window of exactly `count` readings from `begin`: half a period past the
// last instant.
SimTime EndAfter(SimTime begin, const DaqConfig& config, std::int64_t count) {
  return begin + SimTime::FromSecondsF((count + 0.5) * (1.0 / config.sample_hz));
}

FaultPlan Plan(const std::string& spec) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(FaultPlan::Parse(spec, &plan, &error)) << spec << ": " << error;
  return plan;
}

// The drop decisions an injector at `seed` makes over `count` samples: the
// DAQ asks it once per sample, in sample order.
std::vector<bool> DropPattern(const FaultPlan& plan, std::uint64_t seed, std::int64_t count) {
  FaultInjector faults(plan, seed);
  std::vector<bool> dropped(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    dropped[static_cast<std::size_t>(i)] = faults.DropSample();
  }
  return dropped;
}

// Measure on one Daq against Fold(SampleWindow) on another, both fresh at
// `config` (and each with its own injector at `fault_seed` under `plan`, if
// given): the two totals' bits, the drop and recompute counts, the
// injector's draws, and the generator's end state, read as the samples of
// one more window on each.  With drops, the fold of the scalar reference's
// samples must agree too.
void ExpectMeasureMatchesWindow(const DaqConfig& config, const PowerTape& tape, SimTime begin,
                                SimTime end, const std::string& label,
                                const FaultPlan* plan = nullptr, std::uint64_t fault_seed = 0) {
  Daq window(config);
  Daq measured(config);
  std::optional<FaultInjector> window_faults;
  std::optional<FaultInjector> measured_faults;
  if (plan != nullptr) {
    window_faults.emplace(*plan, fault_seed);
    measured_faults.emplace(*plan, fault_seed);
    window.BindFaults(&*window_faults);
    measured.BindFaults(&*measured_faults);
  }
  const std::span<const double> samples = window.SampleWindow(tape, begin, end);
  const Daq::Totals expected = window.Fold(samples);
  const Daq::Totals got = measured.Measure(tape, begin, end);
  EXPECT_EQ(Bits(got.joules), Bits(expected.joules))
      << label << ": joules " << got.joules << " vs " << expected.joules;
  EXPECT_EQ(Bits(got.average_watts), Bits(expected.average_watts))
      << label << ": watts " << got.average_watts << " vs " << expected.average_watts;
  EXPECT_EQ(measured.dropped_samples(), window.dropped_samples()) << label;
  EXPECT_EQ(measured.recomputed(), window.recomputed()) << label;
  if (plan != nullptr) {
    EXPECT_EQ(measured_faults->injected(FaultClass::kDaqDrop),
              window_faults->injected(FaultClass::kDaqDrop))
        << label;
    testing::ReferenceDaq reference(config);
    FaultInjector reference_faults(*plan, fault_seed);
    reference.BindFaults(&reference_faults);
    const Daq::Totals scalar = window.Fold(reference.SampleWindow(tape, begin, end));
    EXPECT_EQ(Bits(got.joules), Bits(scalar.joules))
        << label << ": Measure diverged from the scalar reference's fold";
  }
  // Both generators continue from the same draw: one more window reads the
  // same samples on each.
  const SimTime next_end = end + SimTime::Millis(7);
  const std::vector<double> after = [&] {
    const std::span<const double> w = window.SampleWindow(tape, end, next_end);
    return std::vector<double>(w.begin(), w.end());
  }();
  const std::span<const double> measured_after = measured.SampleWindow(tape, end, next_end);
  ASSERT_EQ(after.size(), measured_after.size()) << label;
  for (std::size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(Bits(after[i]), Bits(measured_after[i]))
        << label << ": the generator ended elsewhere (next window, sample " << i << ")";
  }
}

// Windows inside one chunk, of exactly one and two chunks, and of two chunks
// and a count % 8 tail, with four and with no draws per sample.
TEST(DaqMeasureTest, MatchesWindowAtChunkCounts) {
  const PowerTape tape = RandomTape(0x3EA5, 3000, 40000);
  const SimTime begin = SimTime::Micros(900);
  DaqConfig quiet;
  quiet.noise_lsb = 0.0;
  for (const DaqConfig& config : {DaqConfig{}, quiet}) {
    for (const std::int64_t count :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{8 * 1000 + 5}, kChunk - 1, kChunk,
          kChunk + 1, 2 * kChunk, 2 * kChunk + 8 * 77 + 3}) {
      ExpectMeasureMatchesWindow(config, tape, begin, EndAfter(begin, config, count),
                                 "noise " + std::to_string(config.noise_lsb) + " count " +
                                     std::to_string(count));
    }
  }
  // An empty window, and one shorter than a period.
  ExpectMeasureMatchesWindow(DaqConfig{}, tape, begin, begin, "empty");
  ExpectMeasureMatchesWindow(DaqConfig{}, tape, begin, begin + SimTime::Nanos(1), "sub-period");
}

// Segments that start on a chunk's first reading, one nanosecond to either
// side of it, and within the period before it, so a chunk cursor placed one
// reading off reads the wrong level; at 5 kHz and at 44.1 kHz, whose period
// is not a whole number of nanoseconds.
TEST(DaqMeasureTest, MatchesWindowWithSegmentsAtChunkEdges) {
  for (const double hz : {5000.0, 44100.0}) {
    DaqConfig config;
    config.sample_hz = hz;
    const SimTime begin = SimTime::Micros(1300);
    const std::int64_t count = 3 * kChunk + 8 * 5 + 6;
    for (const std::int64_t offset_ns : {-1, 0, 1}) {
      PowerTape tape;
      tape.Set(SimTime::Zero(), 0.3);
      int level = 0;
      for (std::int64_t c = 1; c <= 3; ++c) {
        const SimTime edge = At(begin, config, c * kChunk);
        tape.Set(edge - SimTime::Micros(150), 0.9 + 0.2 * (level++ % 5));
        tape.Set(edge + SimTime::Nanos(offset_ns), 0.4 + 0.3 * (level++ % 7));
        // A lane edge inside the chunk, too.
        tape.Set(At(begin, config, c * kChunk + kChunk / 8), 1.1 + 0.1 * (level++ % 3));
      }
      ExpectMeasureMatchesWindow(config, tape, begin, EndAfter(begin, config, count),
                                 "hz " + std::to_string(hz) + " offset " +
                                     std::to_string(offset_ns) + " ns");
    }
  }
}

// Dropped runs across chunk edges.  At a drop rate of one half, the first
// injector seed whose runs cross every chunk edge of the window; at a rate
// close to one, the first whose window has a survivor but also a whole chunk
// without one, so a run spans that chunk from the survivor before it to the
// one after it.  Each condition is asserted before it is relied on.
TEST(DaqMeasureTest, MatchesWindowWithDropsAcrossChunkEdges) {
  const PowerTape tape = RandomTape(0xD809, 2000, 60000);
  const DaqConfig config;
  const SimTime begin = SimTime::Micros(400);
  const std::int64_t count = 4 * kChunk + 8 * 9 + 3;
  const SimTime end = EndAfter(begin, config, count);

  const FaultPlan half = Plan("daq-drop=0.5");
  std::uint64_t seed = 1;
  for (;; ++seed) {
    ASSERT_LT(seed, 200u) << "no seed drops across every chunk edge";
    const std::vector<bool> d = DropPattern(half, seed, count);
    bool crosses = true;
    for (std::int64_t c = 1; c <= 4; ++c) {
      const auto edge = static_cast<std::size_t>(c * kChunk);
      crosses = crosses && d[edge - 1] && d[edge];
    }
    if (crosses) {
      break;
    }
  }
  ExpectMeasureMatchesWindow(config, tape, begin, end,
                             "daq-drop=0.5, seed " + std::to_string(seed), &half, seed);

  const FaultPlan nearly_all = Plan("daq-drop=0.99999");
  for (seed = 1;; ++seed) {
    ASSERT_LT(seed, 200u) << "no seed drops a whole chunk between survivors";
    const std::vector<bool> d = DropPattern(nearly_all, seed, count);
    std::vector<bool> survivor_in(5, false);
    for (std::int64_t i = 0; i < count; ++i) {
      if (!d[static_cast<std::size_t>(i)]) {
        survivor_in[static_cast<std::size_t>(i / kChunk)] = true;
      }
    }
    bool bridged = false;  // a whole chunk dropped, with survivors on both sides
    for (int c = 1; c + 1 < 5; ++c) {
      bool before = false;
      bool after = false;
      for (int b = 0; b < c; ++b) {
        before = before || survivor_in[static_cast<std::size_t>(b)];
      }
      for (int a = c + 1; a < 5; ++a) {
        after = after || survivor_in[static_cast<std::size_t>(a)];
      }
      bridged = bridged || (!survivor_in[static_cast<std::size_t>(c)] && before && after);
    }
    if (bridged) {
      break;
    }
  }
  ExpectMeasureMatchesWindow(config, tape, begin, end,
                             "daq-drop=0.99999, seed " + std::to_string(seed), &nearly_all,
                             seed);
}

// Every sample dropped: the window reads zero, across chunks and within one.
TEST(DaqMeasureTest, MatchesWindowWithEverySampleDropped) {
  const PowerTape tape = RandomTape(0xA11D, 500);
  const DaqConfig config;
  const FaultPlan all = Plan("daq-drop=1");
  const SimTime begin = SimTime::Micros(250);
  for (const std::int64_t count : {std::int64_t{8 * 40 + 1}, 2 * kChunk + 5}) {
    ExpectMeasureMatchesWindow(config, tape, begin, EndAfter(begin, config, count),
                               "every sample dropped, count " + std::to_string(count), &all, 3);
    Daq daq(config);
    FaultInjector faults(all, 3);
    daq.BindFaults(&faults);
    const Daq::Totals totals = daq.Measure(tape, begin, EndAfter(begin, config, count));
    EXPECT_EQ(totals.joules, 0.0);
    EXPECT_EQ(daq.dropped_samples(), static_cast<std::uint64_t>(count));
  }
}

// Back-to-back windows on one Daq: each Measure continues the stream where
// the previous one left it, as SampleWindow does.
TEST(DaqMeasureTest, BackToBackMeasuresContinueTheStream) {
  const PowerTape tape = RandomTape(0xB2B, 1500, 40000);
  const DaqConfig config;
  Daq window(config);
  Daq measured(config);
  SimTime from = SimTime::Millis(3);
  for (const std::int64_t count : {kChunk + 8 * 3 + 5, std::int64_t{6}, kChunk}) {
    const SimTime to = EndAfter(from, config, count);
    const Daq::Totals expected = window.Fold(window.SampleWindow(tape, from, to));
    const Daq::Totals got = measured.Measure(tape, from, to);
    EXPECT_EQ(Bits(got.joules), Bits(expected.joules))
        << "count " << count;
    EXPECT_EQ(Bits(got.average_watts), Bits(expected.average_watts))
        << "count " << count;
    from = to;
  }
  EXPECT_EQ(measured.recomputed(), window.recomputed());
}

// The exact-recompute count of one fixed long window, about a chess job's:
// 1.2 million readings of a random tape at the default config.  Both entry
// points count the same readings.  A change that widens or narrows the noise
// screens' margins, or moves a screen's error, changes this count.
TEST(DaqMeasureTest, RecomputeCountIsPinned) {
  const PowerTape tape = RandomTape(0x5EED, 60000);
  const DaqConfig config;
  const SimTime begin = SimTime::Millis(1);
  const SimTime end = EndAfter(begin, config, 1'200'000);
  Daq window(config);
  window.SampleWindow(tape, begin, end);
  Daq measured(config);
  measured.Measure(tape, begin, end);
  EXPECT_EQ(window.recomputed(), measured.recomputed());
  EXPECT_EQ(measured.recomputed(), 184u);
}

}  // namespace
}  // namespace dcs
