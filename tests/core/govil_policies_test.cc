#include "src/core/govil_policies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/core/governor_registry.h"
#include "src/sim/rng.h"
#include "src/exp/experiment.h"
#include "src/workload/synthetic.h"
#include "tests/support/image_copy.h"

namespace dcs {
namespace {

UtilizationSample Sample(double utilization, int step) {
  UtilizationSample s;
  s.utilization = utilization;
  s.step = step;
  return s;
}

// --- FLAT -------------------------------------------------------------------

TEST(FlatGovernorTest, AimsAtTargetUtilization) {
  FlatGovernor governor;  // target 0.75
  // 30% busy at 206.4 MHz -> demand 61.9 MHz -> /0.75 = 82.6 -> step 2
  // (88.5 MHz).
  const auto request = governor.OnQuantum(Sample(0.3, 10));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 2);
}

TEST(FlatGovernorTest, SaturationBumpsOneStep) {
  FlatGovernor governor;
  const auto request = governor.OnQuantum(Sample(1.0, 4));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 5);
}

TEST(FlatGovernorTest, SettlesWhenOnTarget) {
  FlatGovernor governor;
  // 75% busy at step 5: demand = 0.75 * 132.7 = 99.5 -> /0.75 = 132.7 ->
  // step 5 again -> no request.
  EXPECT_FALSE(governor.OnQuantum(Sample(0.75, 5)).has_value());
}

TEST(FlatGovernorTest, NameAndRegistry) {
  EXPECT_STREQ(FlatGovernor().Name(), "flat-75");
  std::string error;
  EXPECT_NE(MakeGovernor("flat-80", &error), nullptr) << error;
  EXPECT_EQ(MakeGovernor("flat-0", &error), nullptr);
  EXPECT_EQ(MakeGovernor("flat-abc", &error), nullptr);
}

// --- LONG_SHORT ---------------------------------------------------------------

TEST(LongShortPredictorTest, BlendsShortAndLongAverages) {
  LongShortPredictor predictor(2, 4);
  predictor.Update(0.0);
  predictor.Update(0.0);
  predictor.Update(1.0);
  const double w = predictor.Update(1.0);
  // short avg (last 2) = 1.0, long avg (last 4) = 0.5 -> (3*1 + 0.5)/4.
  EXPECT_DOUBLE_EQ(w, (3.0 * 1.0 + 0.5) / 4.0);
}

TEST(LongShortPredictorTest, RespondsFasterThanLongWindowAlone) {
  LongShortPredictor ls(3, 12);
  SlidingWindowPredictor win(12);
  // Prime both with a long idle history, then step to busy: LONG_SHORT's
  // short-window term crosses 0.7 within ~3 quanta, the pure 12-wide window
  // needs ~9.
  for (int i = 0; i < 12; ++i) {
    ls.Update(0.0);
    win.Update(0.0);
  }
  int ls_quanta = 0;
  while (ls.Update(1.0) <= 0.7 && ls_quanta < 50) {
    ++ls_quanta;
  }
  int win_quanta = 0;
  while (win.Update(1.0) <= 0.7 && win_quanta < 50) {
    ++win_quanta;
  }
  EXPECT_LT(ls_quanta, win_quanta);
  EXPECT_LE(ls_quanta, 4);
}

TEST(LongShortPredictorTest, StaysInUnitInterval) {
  LongShortPredictor predictor;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double w = predictor.Update(rng.NextDouble() * 1.5 - 0.25);
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST(LongShortPredictorTest, CloneAndReset) {
  LongShortPredictor predictor;
  predictor.Update(0.8);
  LongShortPredictor clone;
  ASSERT_TRUE(testing::CopyThroughImage(predictor, clone));
  EXPECT_DOUBLE_EQ(clone.Current(), predictor.Current());
  predictor.Reset();
  EXPECT_DOUBLE_EQ(predictor.Current(), 0.0);
}

// Reset() returns a used predictor to a fresh one's behaviour; step_response
// resets whichever predictor it measures.
template <typename P>
void ExpectResetMatchesFresh(P used, P fresh) {
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    used.Update(rng.NextDouble());
  }
  used.Reset();
  EXPECT_DOUBLE_EQ(used.Current(), 0.0) << used.Name();
  for (int i = 0; i < 40; ++i) {
    const double u = rng.NextDouble();
    EXPECT_DOUBLE_EQ(used.Update(u), fresh.Update(u)) << used.Name() << " sample " << i;
    EXPECT_DOUBLE_EQ(used.Current(), fresh.Current()) << used.Name() << " sample " << i;
  }
}

TEST(GovilPredictorsTest, ResetMatchesAFreshInstance) {
  ExpectResetMatchesFresh(LongShortPredictor(), LongShortPredictor());
  ExpectResetMatchesFresh(CyclePredictor(4), CyclePredictor(4));
  ExpectResetMatchesFresh(PeakPredictor(), PeakPredictor());
}

// --- CYCLE ----------------------------------------------------------------------

TEST(CyclePredictorTest, LocksOntoPeriodicInput) {
  CyclePredictor predictor(10);
  const auto wave = RectangleWaveSamples(9, 1, 60);
  double last = 0.0;
  for (const double u : wave) {
    last = predictor.Update(u);
  }
  EXPECT_TRUE(predictor.cycle_matched());
  // After 60 samples of a period-10 wave, position 60 is phase 0 (busy):
  // the prediction is the value one cycle back at the same phase = 1.0.
  EXPECT_DOUBLE_EQ(last, 1.0);
}

TEST(CyclePredictorTest, PredictsIdlePhaseCorrectly) {
  CyclePredictor predictor(10);
  const auto wave = RectangleWaveSamples(9, 1, 59);
  double last = 0.0;
  for (const double u : wave) {
    last = predictor.Update(u);
  }
  // Position 59 is phase 9 (idle): prediction = 0.0.  This is the win over
  // every averaging predictor: CYCLE anticipates the idle quantum.
  EXPECT_TRUE(predictor.cycle_matched());
  EXPECT_DOUBLE_EQ(last, 0.0);
}

TEST(CyclePredictorTest, FallsBackOnAperiodicInput) {
  CyclePredictor predictor(10, 0.05);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    predictor.Update(rng.NextDouble());
  }
  EXPECT_FALSE(predictor.cycle_matched());
}

TEST(CyclePredictorTest, WrongCycleLengthDoesNotMatch) {
  CyclePredictor predictor(7, 0.05);  // wave period is 10
  const auto wave = RectangleWaveSamples(9, 1, 100);
  for (const double u : wave) {
    predictor.Update(u);
  }
  EXPECT_FALSE(predictor.cycle_matched());
}

// --- PEAK ----------------------------------------------------------------------

// CyclePredictor keeps only the last 2 * cycle_length samples, which is all
// Update() reads.  This reference keeps every sample, as the predictor once
// did; on any input both must predict the same bits.
class UntrimmedCycleReference {
 public:
  UntrimmedCycleReference(std::size_t len, double tolerance) : len_(len), tolerance_(tolerance) {}

  double Update(double utilization) {
    history_.push_back(std::clamp(utilization, 0.0, 1.0));
    const std::size_t n = history_.size();
    if (n >= 2 * len_) {
      double err = 0.0;
      for (std::size_t i = 0; i < len_; ++i) {
        err += std::abs(history_[n - 1 - i] - history_[n - 1 - i - len_]);
      }
      if (err / static_cast<double>(len_) <= tolerance_) {
        return history_[n - len_];
      }
    }
    double sum = 0.0;
    const std::size_t take = std::min(n, len_);
    for (std::size_t i = 0; i < take; ++i) {
      sum += history_[n - 1 - i];
    }
    return sum / static_cast<double>(take);
  }

 private:
  std::size_t len_;
  double tolerance_;
  std::vector<double> history_;
};

TEST(CyclePredictorTest, TrimmedHistoryPredictsTheUntrimmedBits) {
  for (const int len : {2, 5, 10}) {
    CyclePredictor predictor(len, 0.10);
    UntrimmedCycleReference reference(static_cast<std::size_t>(len), 0.10);
    Rng rng(static_cast<std::uint64_t>(len));
    // Stretches of noise alternate with stretches of a repeated cycle, so
    // both the matched and the fallback branches run.
    std::vector<double> cycle(static_cast<std::size_t>(len));
    for (int stretch = 0; stretch < 40; ++stretch) {
      for (double& u : cycle) {
        u = rng.NextDouble();
      }
      const bool periodic = stretch % 2 == 1;
      for (int i = 0; i < 6 * len; ++i) {
        const double u = periodic ? cycle[static_cast<std::size_t>(i % len)] + 0.01 * rng.NextDouble()
                                  : 1.2 * rng.NextDouble() - 0.1;
        const double got = predictor.Update(u);
        const double want = reference.Update(u);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
            << "len " << len << " stretch " << stretch << " sample " << i;
      }
    }
  }
}

TEST(PeakPredictorTest, RisingEdgePredictsFallBack) {
  PeakPredictor predictor;
  predictor.Update(0.2);
  EXPECT_DOUBLE_EQ(predictor.Update(0.8), 0.2);
}

TEST(PeakPredictorTest, FallingEdgePredictsFurtherFall) {
  PeakPredictor predictor;
  predictor.Update(0.8);
  EXPECT_DOUBLE_EQ(predictor.Update(0.6), 0.4);
}

TEST(PeakPredictorTest, FlatInputPredictsItself) {
  PeakPredictor predictor;
  predictor.Update(0.5);
  EXPECT_DOUBLE_EQ(predictor.Update(0.5), 0.5);
}

TEST(PeakPredictorTest, ClampedAtZero) {
  PeakPredictor predictor;
  predictor.Update(0.9);
  EXPECT_DOUBLE_EQ(predictor.Update(0.1), 0.0);
}

// --- Registry & end-to-end --------------------------------------------------------

TEST(GovilRegistryTest, PredictorSpecsParse) {
  std::string error;
  EXPECT_NE(MakeGovernor("LS-one-one-50-70", &error), nullptr) << error;
  EXPECT_NE(MakeGovernor("PEAK-peg-peg-93-98", &error), nullptr) << error;
  EXPECT_NE(MakeGovernor("CYCLE10-one-one-50-70", &error), nullptr) << error;
  EXPECT_EQ(MakeGovernor("CYCLE1-one-one-50-70", &error), nullptr);
}

TEST(GovilEndToEndTest, AllPoliciesRunSafelyOrFailVisibly) {
  // None of the Govil policies should crash or hang; record their outcomes.
  for (const char* spec :
       {"flat-75", "LS-peg-peg-93-98", "PEAK-peg-peg-93-98", "CYCLE7-peg-peg-93-98"}) {
    ExperimentConfig config;
    config.app = "mpeg";
    config.governor = spec;
    config.seed = 23;
    config.duration = SimTime::Seconds(15);
    const ExperimentResult result = RunExperiment(config);
    EXPECT_GT(result.energy_joules, 0.0) << spec;
    EXPECT_GT(result.deadline_events, 100) << spec;
  }
}

TEST(GovilEndToEndTest, FlatIsSafeAndSavesOnMpeg) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "flat-75";
  config.seed = 23;
  config.duration = SimTime::Seconds(30);
  const ExperimentResult flat = RunExperiment(config);
  config.governor = "fixed-206.4";
  const ExperimentResult baseline = RunExperiment(config);
  EXPECT_EQ(flat.deadline_misses, 0);
  EXPECT_LT(flat.energy_joules, baseline.energy_joules);
}

}  // namespace
}  // namespace dcs
