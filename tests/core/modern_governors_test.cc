#include "src/core/modern_governors.h"

#include <gtest/gtest.h>

#include "tests/support/image_copy.h"

namespace dcs {
namespace {

UtilizationSample Sample(double utilization, int step) {
  UtilizationSample s;
  s.utilization = utilization;
  s.step = step;
  return s;
}

TEST(OndemandGovernorTest, BurstsToMaxAboveThreshold) {
  OndemandGovernor gov;
  const auto request = gov.OnQuantum(Sample(0.95, 3));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 10);
}

TEST(OndemandGovernorTest, ProportionalTargetBelowThreshold) {
  OndemandGovernor gov;
  // util 0.4 at 206.4 MHz: target = 206.3936 * 0.4 / 0.8 = 103.197 -> step 3
  // (103.2192 MHz just covers it).
  const auto request = gov.OnQuantum(Sample(0.4, 10));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 3);
}

TEST(OndemandGovernorTest, NoRequestWhenAlreadyRight) {
  OndemandGovernor gov;
  EXPECT_FALSE(gov.OnQuantum(Sample(0.79, 10)).has_value());
}

TEST(OndemandGovernorTest, SamplingWindowUsesMaxUtilization) {
  OndemandConfig config;
  config.sampling_quanta = 3;
  OndemandGovernor gov(config);
  EXPECT_FALSE(gov.OnQuantum(Sample(0.2, 5)).has_value());
  EXPECT_FALSE(gov.OnQuantum(Sample(0.95, 5)).has_value());
  // Decision quantum: the 0.95 spike dominates -> burst to max.
  const auto request = gov.OnQuantum(Sample(0.1, 5));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 10);
}

TEST(OndemandGovernorTest, ResetRestartsWindow) {
  OndemandConfig config;
  config.sampling_quanta = 2;
  OndemandGovernor gov(config);
  gov.OnQuantum(Sample(1.0, 5));
  // Reset: a fresh governor's snapshot image loaded into the used one.  The
  // window restarts; one more sample is not enough.
  ASSERT_TRUE(testing::CopyThroughImage(OndemandGovernor(config), gov));
  EXPECT_FALSE(gov.OnQuantum(Sample(1.0, 5)).has_value());
}

TEST(OndemandGovernorTest, RespectsStepBounds) {
  OndemandConfig config;
  config.min_step = 2;
  config.max_step = 8;
  OndemandGovernor gov(config);
  auto request = gov.OnQuantum(Sample(0.99, 5));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 8);
  request = gov.OnQuantum(Sample(0.01, 8));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 2);
}

TEST(SchedutilGovernorTest, TargetsHeadroomTimesUtilization) {
  SchedutilConfig config;
  config.smoothing = 0.0;  // no filter: direct mapping
  SchedutilGovernor gov(config);
  // Fully busy at 132.7: scaled util = 132.7/206.4 = 0.643; target =
  // 1.25 * 0.643 * 206.4 = 165.9 -> step 8 (176.9).
  const auto request = gov.OnQuantum(Sample(1.0, 5));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 8);
}

TEST(SchedutilGovernorTest, ConvergesUpwardUnderSaturation) {
  SchedutilConfig config;
  config.smoothing = 0.0;
  SchedutilGovernor gov(config);
  int step = 0;
  for (int i = 0; i < 10; ++i) {
    const auto request = gov.OnQuantum(Sample(1.0, step));
    if (request.has_value()) {
      step = *request->step;
    }
  }
  EXPECT_EQ(step, 10);
}

TEST(SchedutilGovernorTest, IdleDecaysToFloor) {
  SchedutilConfig config;
  config.smoothing = 0.5;
  SchedutilGovernor gov(config);
  int step = 10;
  for (int i = 0; i < 30; ++i) {
    const auto request = gov.OnQuantum(Sample(0.0, step));
    if (request.has_value()) {
      step = *request->step;
    }
  }
  EXPECT_EQ(step, 0);
}

TEST(SchedutilGovernorTest, SmoothingDampsSingleSpike) {
  SchedutilConfig config;
  config.smoothing = 0.9;
  SchedutilGovernor gov(config);
  // One spike from idle barely moves the smoothed utilization.
  gov.OnQuantum(Sample(0.0, 5));
  const auto request = gov.OnQuantum(Sample(1.0, 5));
  EXPECT_LT(gov.scaled_utilization(), 0.1);
  if (request.has_value()) {
    EXPECT_LT(*request->step, 5);
  }
}

TEST(SchedutilGovernorTest, RateLimitBlocksBackToBackChanges) {
  SchedutilConfig config;
  config.smoothing = 0.0;
  config.rate_limit_quanta = 5;
  SchedutilGovernor gov(config);
  int changes = 0;
  for (int i = 0; i < 10; ++i) {
    if (gov.OnQuantum(Sample(1.0, 0)).has_value()) {
      ++changes;
    }
  }
  EXPECT_LE(changes, 2);
}

TEST(SchedutilGovernorTest, ResetClearsState) {
  SchedutilGovernor gov;
  gov.OnQuantum(Sample(1.0, 10));
  // Reset: a fresh governor's snapshot image loaded into the used one.
  ASSERT_TRUE(testing::CopyThroughImage(SchedutilGovernor(), gov));
  EXPECT_DOUBLE_EQ(gov.scaled_utilization(), 0.0);
}

TEST(ModernGovernorNames, AreStable) {
  EXPECT_STREQ(OndemandGovernor().Name(), "ondemand");
  EXPECT_STREQ(SchedutilGovernor().Name(), "schedutil");
}

}  // namespace
}  // namespace dcs
