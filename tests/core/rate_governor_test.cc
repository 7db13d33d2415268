#include "src/core/rate_governor.h"

#include <gtest/gtest.h>

#include "src/exp/experiment.h"
#include "tests/support/image_copy.h"

namespace dcs {
namespace {

UtilizationSample Sample(double utilization, int step) {
  UtilizationSample s;
  s.utilization = utilization;
  s.step = step;
  return s;
}

TEST(SaturationAwareGovernorTest, EscapesTheFigure5Ceiling) {
  // The naive cycle counter is pinned at the floor under saturation; the
  // saturation-aware repair pegs up immediately.
  SaturationAwareGovernor governor;
  const auto request = governor.OnQuantum(Sample(1.0, 0));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 10);
}

TEST(SaturationAwareGovernorTest, TracksRateWhenUnsaturated) {
  SaturationAwareGovernor governor;
  // Four quanta at 50% of 206.4 MHz: demand ~103.2 MHz, * 1.15 headroom =
  // 118.7 -> step 5 (132.7 MHz covers it; 118.0 is step 4, just below).
  std::optional<SpeedRequest> request;
  for (int i = 0; i < 4; ++i) {
    request = governor.OnQuantum(Sample(0.5, 10));
  }
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 5);
}

TEST(SaturationAwareGovernorTest, SaturationFlushesStaleWindow) {
  SaturationAwareGovernor governor;
  for (int i = 0; i < 4; ++i) {
    governor.OnQuantum(Sample(0.2, 0));  // slow & mostly idle
  }
  governor.OnQuantum(Sample(1.0, 0));  // saturation escape
  EXPECT_DOUBLE_EQ(governor.AverageBusyMhz(), 0.0);
}

TEST(SaturationAwareGovernorTest, IdleDropsToFloor) {
  SaturationAwareGovernor governor;
  int step = 10;
  for (int i = 0; i < 8; ++i) {
    const auto request = governor.OnQuantum(Sample(0.0, step));
    if (request.has_value()) {
      step = *request->step;
    }
  }
  EXPECT_EQ(step, 0);
}

TEST(SaturationAwareGovernorTest, ConfigurableEscapeStep) {
  RateGovernorConfig config;
  config.escape_steps = 2;
  SaturationAwareGovernor governor(config);
  const auto request = governor.OnQuantum(Sample(1.0, 3));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 5);
}

TEST(SaturationAwareGovernorTest, ResetAndName) {
  SaturationAwareGovernor governor;
  EXPECT_STREQ(governor.Name(), "satrate4");
  governor.OnQuantum(Sample(0.5, 10));
  // Reset: a fresh governor's snapshot image loaded into the used one.
  ASSERT_TRUE(testing::CopyThroughImage(SaturationAwareGovernor(), governor));
  EXPECT_DOUBLE_EQ(governor.AverageBusyMhz(), 0.0);
}

TEST(SaturationAwareGovernorIntegrationTest, SafeWhereCyclesPolicyFails) {
  // Head-to-head with the naive policy on MPEG: the repair eliminates the
  // catastrophic misses.
  ExperimentConfig config;
  config.app = "mpeg";
  config.seed = 9;
  config.duration = SimTime::Seconds(30);
  config.governor = "satrate4";
  const ExperimentResult fixed = RunExperiment(config);
  config.governor = "cycles4";
  const ExperimentResult naive = RunExperiment(config);
  EXPECT_EQ(fixed.deadline_misses, 0);
  EXPECT_GT(naive.deadline_misses, 100);
}

TEST(SaturationAwareGovernorIntegrationTest, SavesEnergyVersusTopSpeed) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.seed = 9;
  config.duration = SimTime::Seconds(30);
  config.governor = "satrate4";
  const ExperimentResult fixed = RunExperiment(config);
  config.governor = "fixed-206.4";
  const ExperimentResult baseline = RunExperiment(config);
  EXPECT_LT(fixed.energy_joules, baseline.energy_joules);
}

}  // namespace
}  // namespace dcs
