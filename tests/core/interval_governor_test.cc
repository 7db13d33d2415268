#include "src/core/interval_governor.h"

#include <gtest/gtest.h>

#include "src/core/governor_registry.h"
#include "tests/support/image_copy.h"

namespace dcs {
namespace {

UtilizationSample Sample(double utilization, int step,
                         CoreVoltage voltage = CoreVoltage::kHigh) {
  UtilizationSample s;
  s.utilization = utilization;
  s.step = step;
  s.voltage = voltage;
  return s;
}

std::unique_ptr<IntervalGovernor> MakeGov(
    std::unique_ptr<UtilizationPredictor> predictor, const char* up, const char* down,
    double lo, double hi, bool voltage_scaling = false) {
  IntervalGovernorConfig config;
  config.thresholds = Thresholds{lo, hi};
  config.voltage_scaling = voltage_scaling;
  return std::make_unique<IntervalGovernor>(std::move(predictor), MakeSpeedPolicy(up),
                                            MakeSpeedPolicy(down), config);
}

TEST(IntervalGovernorTest, NameEncodesConfiguration) {
  auto gov = MakeGov(std::make_unique<PastPredictor>(), "peg", "peg", 0.93, 0.98);
  EXPECT_STREQ(gov->Name(), "PAST-peg-peg-93/98");
  auto gov_vs = MakeGov(std::make_unique<AvgNPredictor>(9), "one", "double", 0.50, 0.70,
                        true);
  EXPECT_STREQ(gov_vs->Name(), "AVG9-one-double-50/70-vs");
}

TEST(IntervalGovernorTest, HighUtilizationScalesUp) {
  auto gov = MakeGov(std::make_unique<PastPredictor>(), "one", "one", 0.50, 0.70);
  const auto request = gov->OnQuantum(Sample(0.9, 5));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 6);
  EXPECT_EQ(gov->scale_ups(), 1);
}

TEST(IntervalGovernorTest, LowUtilizationScalesDown) {
  auto gov = MakeGov(std::make_unique<PastPredictor>(), "one", "one", 0.50, 0.70);
  const auto request = gov->OnQuantum(Sample(0.2, 5));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 4);
  EXPECT_EQ(gov->scale_downs(), 1);
}

TEST(IntervalGovernorTest, HysteresisBandHoldsSteady) {
  auto gov = MakeGov(std::make_unique<PastPredictor>(), "one", "one", 0.50, 0.70);
  EXPECT_FALSE(gov->OnQuantum(Sample(0.6, 5)).has_value());
  EXPECT_FALSE(gov->OnQuantum(Sample(0.50, 5)).has_value());  // at the edge: no change
  EXPECT_FALSE(gov->OnQuantum(Sample(0.70, 5)).has_value());
}

TEST(IntervalGovernorTest, PegJumpsToExtremes) {
  auto gov = MakeGov(std::make_unique<PastPredictor>(), "peg", "peg", 0.93, 0.98);
  EXPECT_EQ(gov->OnQuantum(Sample(1.0, 4))->step, 10);
  EXPECT_EQ(gov->OnQuantum(Sample(0.5, 4))->step, 0);
}

TEST(IntervalGovernorTest, NoRequestAtBoundarySteps) {
  auto gov = MakeGov(std::make_unique<PastPredictor>(), "one", "one", 0.50, 0.70);
  EXPECT_FALSE(gov->OnQuantum(Sample(1.0, 10)).has_value());  // already at max
  EXPECT_FALSE(gov->OnQuantum(Sample(0.0, 0)).has_value());   // already at min
}

TEST(IntervalGovernorTest, Avg9LagDelaysScaleUp) {
  // From idle, AVG9 with a 70% threshold takes 12 quanta to scale up.
  auto gov = MakeGov(std::make_unique<AvgNPredictor>(9), "one", "one", 0.50, 0.70);
  int quanta = 0;
  while (!gov->OnQuantum(Sample(1.0, 10)).has_value() && quanta < 100) {
    ++quanta;
  }
  // The sample's step is 10 (max) so up-requests are invisible; use a mid
  // step on a fresh governor instead to detect the first up decision.
  gov = MakeGov(std::make_unique<AvgNPredictor>(9), "one", "one", 0.50, 0.70);
  quanta = 0;
  std::optional<SpeedRequest> request;
  do {
    request = gov->OnQuantum(Sample(1.0, 5));
    ++quanta;
  } while ((!request.has_value() || request->step <= 5) && quanta < 100);
  EXPECT_EQ(quanta, 12);
}

TEST(IntervalGovernorTest, VoltageScalingFollowsStep) {
  auto gov = MakeGov(std::make_unique<PastPredictor>(), "peg", "peg", 0.50, 0.70, true);
  // Scale down from the top: step 0 <= 7, so the rail drops too.
  const auto down = gov->OnQuantum(Sample(0.2, 10));
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->step, 0);
  ASSERT_TRUE(down->voltage.has_value());
  EXPECT_EQ(*down->voltage, CoreVoltage::kLow);
  // Scale up from a low-voltage state: rail must come back to high.
  const auto up = gov->OnQuantum(Sample(1.0, 0, CoreVoltage::kLow));
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->step, 10);
  ASSERT_TRUE(up->voltage.has_value());
  EXPECT_EQ(*up->voltage, CoreVoltage::kHigh);
}

TEST(IntervalGovernorTest, VoltageRequestEvenWithoutStepChange) {
  auto gov = MakeGov(std::make_unique<PastPredictor>(), "peg", "peg", 0.50, 0.70, true);
  // In the hysteresis band at a slow step but still on the high rail: the
  // governor asks for the low rail.
  const auto request = gov->OnQuantum(Sample(0.6, 3, CoreVoltage::kHigh));
  ASSERT_TRUE(request.has_value());
  EXPECT_FALSE(request->step.has_value());
  ASSERT_TRUE(request->voltage.has_value());
  EXPECT_EQ(*request->voltage, CoreVoltage::kLow);
}

TEST(IntervalGovernorTest, NoVoltageScalingWhenDisabled) {
  auto gov = MakeGov(std::make_unique<PastPredictor>(), "peg", "peg", 0.50, 0.70, false);
  const auto request = gov->OnQuantum(Sample(0.2, 10));
  ASSERT_TRUE(request.has_value());
  EXPECT_FALSE(request->voltage.has_value());
}

// Reset: a fresh governor's snapshot image loaded into a used one.
TEST(IntervalGovernorTest, ResetClearsPredictorAndCounters) {
  auto gov = MakeGov(std::make_unique<AvgNPredictor>(9), "peg", "peg", 0.50, 0.70);
  for (int i = 0; i < 20; ++i) {
    gov->OnQuantum(Sample(1.0, 5));
  }
  EXPECT_GT(gov->weighted_utilization(), 0.5);
  const auto fresh = MakeGov(std::make_unique<AvgNPredictor>(9), "peg", "peg", 0.50, 0.70);
  ASSERT_TRUE(testing::CopyThroughImage(*fresh, *gov));
  EXPECT_DOUBLE_EQ(gov->weighted_utilization(), 0.0);
  EXPECT_EQ(gov->scale_ups(), 0);
  EXPECT_EQ(gov->scale_downs(), 0);
}

TEST(IntervalGovernorTest, RespectsConfiguredStepRange) {
  IntervalGovernorConfig config;
  config.thresholds = Thresholds{0.50, 0.70};
  config.min_step = 3;
  config.max_step = 8;
  IntervalGovernor gov(std::make_unique<PastPredictor>(), MakeSpeedPolicy("peg"),
                       MakeSpeedPolicy("peg"), config);
  EXPECT_EQ(gov.OnQuantum(Sample(1.0, 5))->step, 8);
  EXPECT_EQ(gov.OnQuantum(Sample(0.1, 5))->step, 3);
}

// The "best policy" of section 5.4, built from its registry spec.
TEST(IntervalGovernorTest, PastPegPegSpecMatchesPaperBestPolicy) {
  auto gov = MakeGovernor("PAST-peg-peg-93-98");
  ASSERT_NE(gov, nullptr);
  EXPECT_STREQ(gov->Name(), "PAST-peg-peg-93/98");
  // >98% scales up, <93% scales down, between: no change.
  EXPECT_EQ(gov->OnQuantum(Sample(0.99, 5))->step, 10);
  EXPECT_EQ(gov->OnQuantum(Sample(0.92, 5))->step, 0);
  EXPECT_FALSE(gov->OnQuantum(Sample(0.95, 5)).has_value());
}

// Table 1 shape: AVG9 with 70%/50% thresholds on 15 active + 5 idle quanta,
// starting from an idle system at the bottom step, produces exactly the
// paper's annotations: 5 "Scale up" rows and 1 "Scale down" row.
TEST(IntervalGovernorTest, PaperTable1ScaleAnnotations) {
  auto gov = MakeGov(std::make_unique<AvgNPredictor>(9), "one", "one", 0.50, 0.70);
  int step = 0;  // idle system starts at the bottom, so early W < 50% is moot
  auto feed = [&](double u) {
    const auto request = gov->OnQuantum(Sample(u, step));
    if (request.has_value() && request->step.has_value()) {
      step = *request->step;
    }
  };
  for (int i = 0; i < 15; ++i) {
    feed(1.0);
  }
  EXPECT_EQ(gov->scale_ups(), 4);  // W crosses 0.70 at quantum 12 of 15
  for (int i = 0; i < 5; ++i) {
    feed(0.0);
  }
  // The first idle quantum still has W = 71.5% > 70% (the lag the paper
  // highlights), so one more scale-up fires before W sinks below 50%.
  EXPECT_EQ(gov->scale_ups(), 5);
  EXPECT_EQ(gov->scale_downs(), 1);
}

}  // namespace
}  // namespace dcs
