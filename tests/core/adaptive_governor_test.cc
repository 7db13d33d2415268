// Unit tests for the multiplicative-weights adaptive governor: the expert
// pool, the weight update (concentration, floor, renormalization), the mixed
// prediction, and the speed decision built on it.

#include "src/core/adaptive_governor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "tests/support/image_copy.h"

namespace dcs {
namespace {

// Feeds `quanta` samples of a fixed utilization with ideal hardware (every
// requested step applied); returns the final step.
int StepAfter(AdaptiveGovernor& governor, int start_step, double utilization, int quanta) {
  int step = start_step;
  for (int q = 0; q < quanta; ++q) {
    UtilizationSample sample;
    sample.utilization = utilization;
    sample.step = step;
    sample.quantum_index = static_cast<std::uint64_t>(q);
    if (const auto request = governor.OnQuantum(sample); request && request->step) {
      step = *request->step;
    }
  }
  return step;
}

double WeightSum(const AdaptiveGovernor& governor) {
  return std::accumulate(governor.weights().begin(), governor.weights().end(), 0.0);
}

TEST(AdaptiveGovernorTest, NameEncodesLearningRateAndRail) {
  EXPECT_STREQ(AdaptiveGovernor().Name(), "adaptive-2.0");
  AdaptiveGovernorConfig config;
  config.eta = 0.5;
  config.voltage_scaling = true;
  EXPECT_STREQ(AdaptiveGovernor(config).Name(), "adaptive-0.5-vs");
}

TEST(AdaptiveGovernorTest, PoolStartsUniformOverSixExperts) {
  AdaptiveGovernor governor;
  ASSERT_EQ(governor.weights().size(), 6u);
  for (const double w : governor.weights()) {
    EXPECT_DOUBLE_EQ(w, 1.0 / 6.0);
  }
}

TEST(AdaptiveGovernorTest, WeightsStayNormalizedAndFloored) {
  AdaptiveGovernor governor;
  for (int q = 0; q < 200; ++q) {
    UtilizationSample sample;
    sample.utilization = (q % 2 == 0) ? 1.0 : 0.0;  // worst case for PAST
    sample.step = 5;
    (void)governor.OnQuantum(sample);
    EXPECT_NEAR(WeightSum(governor), 1.0, 1e-9) << "quantum " << q;
    for (const double w : governor.weights()) {
      EXPECT_GT(w, 0.0) << "quantum " << q;
    }
  }
}

// The pool is built as PAST, AVG2, AVG6, AVG12, WIN4, WIN16
// (src/core/adaptive_governor.cc), so PAST's weight is the first.
constexpr std::size_t kPastExpert = 0;

TEST(AdaptiveGovernorTest, FastAlternationBuriesThePastPredictor) {
  // A square wave flipping 1.0 / 0.0 every quantum: PAST is wrong by 1.0
  // every single quantum (the classic oscillation failure), while the
  // smoothing experts hover near 0.5 and lose only half as much.  The
  // learner must push PAST to the bottom of the pool and concentrate weight
  // on a smoother.
  AdaptiveGovernor governor;
  for (int q = 0; q < 200; ++q) {
    UtilizationSample sample;
    sample.utilization = (q % 2 == 0) ? 1.0 : 0.0;
    sample.step = 5;
    (void)governor.OnQuantum(sample);
  }
  const auto& weights = governor.weights();
  const double past = weights[kPastExpert];
  EXPECT_LT(past, 0.05);
  EXPECT_LE(past, *std::min_element(weights.begin(), weights.end()) + 1e-12);
  EXPECT_GT(*std::max_element(weights.begin(), weights.end()), 0.3);
}

TEST(AdaptiveGovernorTest, SlowPhasesCrownThePastPredictor) {
  // Long flat phases (4 quanta high, 4 low): PAST is exact except at the
  // two transitions per period, while every averager smears the edges — the
  // learner must move most of the weight onto PAST.
  AdaptiveGovernor governor;
  for (int q = 0; q < 400; ++q) {
    UtilizationSample sample;
    sample.utilization = (q % 8 < 4) ? 1.0 : 0.0;
    sample.step = 5;
    (void)governor.OnQuantum(sample);
  }
  const auto& weights = governor.weights();
  const double past = weights[kPastExpert];
  EXPECT_GE(past, *std::max_element(weights.begin(), weights.end()) - 1e-12);
  EXPECT_GT(past, 0.5);
}

TEST(AdaptiveGovernorTest, MixedPredictionTracksConstantLoad) {
  AdaptiveGovernor governor;
  for (int q = 0; q < 50; ++q) {
    UtilizationSample sample;
    sample.utilization = 0.5;
    sample.step = 5;
    (void)governor.OnQuantum(sample);
  }
  EXPECT_NEAR(governor.mixed_prediction(), 0.5, 0.05);
}

TEST(AdaptiveGovernorTest, SaturationEscapeClimbsToTopStep) {
  AdaptiveGovernor governor;
  EXPECT_EQ(StepAfter(governor, ClockTable::MinStep(), 1.0, 15), ClockTable::MaxStep());
}

TEST(AdaptiveGovernorTest, IdleSinksToFloorStepAndGoesQuiet) {
  AdaptiveGovernor governor;
  const int step = StepAfter(governor, ClockTable::MaxStep(), 0.0, 40);
  EXPECT_EQ(step, ClockTable::MinStep());
  UtilizationSample sample;
  sample.utilization = 0.0;
  sample.step = step;
  EXPECT_EQ(governor.OnQuantum(sample), std::nullopt);
}

TEST(AdaptiveGovernorTest, IdenticalStreamsProduceIdenticalDecisions) {
  // Pure arithmetic, no RNG: two instances fed the same samples must agree
  // on every weight and every request.
  AdaptiveGovernor a;
  AdaptiveGovernor b;
  int step_a = 5;
  int step_b = 5;
  for (int q = 0; q < 100; ++q) {
    const double u = (q * 37 % 100) / 100.0;
    UtilizationSample sample;
    sample.utilization = u;
    sample.step = step_a;
    const auto ra = a.OnQuantum(sample);
    sample.step = step_b;
    const auto rb = b.OnQuantum(sample);
    ASSERT_EQ(ra.has_value(), rb.has_value()) << "quantum " << q;
    if (ra && ra->step) {
      step_a = *ra->step;
    }
    if (rb && rb->step) {
      step_b = *rb->step;
    }
    EXPECT_EQ(step_a, step_b) << "quantum " << q;
    ASSERT_EQ(a.weights().size(), b.weights().size());
    for (std::size_t i = 0; i < a.weights().size(); ++i) {
      EXPECT_EQ(a.weights()[i], b.weights()[i]) << "quantum " << q << " expert " << i;
    }
  }
}

// A used governor is reset by loading a fresh one's snapshot image over it,
// the way a fleet device is recycled by loading an image over its state.
TEST(AdaptiveGovernorTest, ResetRestoresTheUniformPool) {
  AdaptiveGovernor governor;
  (void)StepAfter(governor, 5, 1.0, 50);
  ASSERT_TRUE(testing::CopyThroughImage(AdaptiveGovernor(), governor));
  for (const double w : governor.weights()) {
    EXPECT_DOUBLE_EQ(w, 1.0 / 6.0);
  }
  EXPECT_DOUBLE_EQ(governor.mixed_prediction(), 0.0);
}

TEST(AdaptiveGovernorTest, VoltageScalingRequestsTheLowRailAtSafeSteps) {
  AdaptiveGovernorConfig config;
  config.voltage_scaling = true;
  AdaptiveGovernor governor(config);
  UtilizationSample sample;
  sample.step = ClockTable::MaxStep();
  sample.voltage = CoreVoltage::kHigh;
  sample.utilization = 0.0;
  bool asked_low = false;
  for (int q = 0; q < 40 && !asked_low; ++q) {
    if (const auto request = governor.OnQuantum(sample)) {
      if (request->step) {
        sample.step = *request->step;
      }
      if (request->voltage) {
        EXPECT_LE(sample.step, kMaxStepAtLowVoltage);
        EXPECT_EQ(*request->voltage, CoreVoltage::kLow);
        asked_low = true;
      }
    }
  }
  EXPECT_TRUE(asked_low);
}

}  // namespace
}  // namespace dcs
