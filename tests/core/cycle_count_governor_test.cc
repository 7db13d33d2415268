#include "src/core/cycle_count_governor.h"

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

TEST(CycleCountGovernorTest, FigureFiveGoingIdle) {
  // Figure 5(a): from four fully-busy quanta at 206 MHz, idle quanta drag
  // the busy-cycle average down fast; after four idle quanta the clock is at
  // the bottom.
  CycleCountGovernor gov(4);
  // Prime with busy quanta at the top step.
  for (int i = 0; i < 4; ++i) {
    gov.OnQuantum(Sample(1.0, 10));
  }
  EXPECT_NEAR(gov.AverageBusyMhz(), 206.4, 0.1);
  // First idle quantum: average (206*3 + 0)/4 = 154.8 -> step for >= 154.8
  // is 162.2 MHz (step 7), exactly the paper's "Avg = 154.5, Speed = 162.5"
  // modulo its rounded arithmetic.
  auto request = gov.OnQuantum(Sample(0.0, 10));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 7);
  // Keep idling: two more zeros bring the average to ~51.6 -> floor.
  gov.OnQuantum(Sample(0.0, *request->step));
  request = gov.OnQuantum(Sample(0.0, 5));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->step, 0);
}

TEST(CycleCountGovernorTest, FigureFiveSpeedingUpStallsAtTheFloor) {
  // Figure 5(b): from idle at 59 MHz, busy quanta only add 59 MHz-equivalents
  // each — "the total number of non-idle instructions across the four
  // scheduling intervals grows very slowly".  With no headroom the policy is
  // in fact *pinned* at the floor: a saturated 59 MHz quantum only ever
  // justifies 59 MHz.  The paper's trace shows exactly this (Avg = 44.25,
  // Speed = 59 after four busy quanta).
  CycleCountGovernor gov(4);
  for (int i = 0; i < 4; ++i) {
    gov.OnQuantum(Sample(0.0, 0));
  }
  int step = 0;
  for (int i = 0; i < 20; ++i) {
    const auto request = gov.OnQuantum(Sample(1.0, step));
    if (request.has_value()) {
      step = *request->step;
    }
  }
  EXPECT_EQ(step, 0);
}

TEST(CycleCountGovernorTest, AsymmetryDownFasterThanUp) {
  // The paper's core complaint: scaling down takes ~3 quanta, scaling up
  // from the floor takes far longer.
  CycleCountGovernor down(4);
  for (int i = 0; i < 4; ++i) {
    down.OnQuantum(Sample(1.0, 10));
  }
  int down_quanta = 0;
  int step = 10;
  while (step > 0 && down_quanta < 50) {
    const auto request = down.OnQuantum(Sample(0.0, step));
    if (request.has_value()) {
      step = *request->step;
    }
    ++down_quanta;
  }

  CycleCountGovernor up(4);
  for (int i = 0; i < 4; ++i) {
    up.OnQuantum(Sample(0.0, 0));
  }
  int up_quanta = 0;
  step = 0;
  while (step < 10 && up_quanta < 50) {
    const auto request = up.OnQuantum(Sample(1.0, step));
    if (request.has_value()) {
      step = *request->step;
    }
    ++up_quanta;
  }
  EXPECT_LT(down_quanta, up_quanta);
}

TEST(CycleCountGovernorTest, SteadyStateNoRequest) {
  CycleCountGovernor gov(4);
  // At 59 MHz fully busy, the step for "at least 59 busy MHz" is 0 after the
  // window fills with (utilization 1.0, 59 MHz) samples... which is already
  // the current step, so no request.
  gov.OnQuantum(Sample(1.0, 0));
  gov.OnQuantum(Sample(1.0, 0));
  gov.OnQuantum(Sample(1.0, 0));
  const auto request = gov.OnQuantum(Sample(1.0, 0));
  // Step for >= 58.9824 MHz is step 0 -> no change.
  EXPECT_FALSE(request.has_value());
}

TEST(CycleCountGovernorTest, HeadroomRequestsFasterStep) {
  CycleCountGovernor gov(1, /*headroom=*/1.5);
  // One quantum fully busy at 132.7 -> target 199 MHz -> step 9 (206.4 is
  // step 10; 191.7 < 199 so the chosen step is 10).
  const auto request = gov.OnQuantum(Sample(1.0, 5));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(*request->step, 10);
}

// Reset: a fresh governor's snapshot image loaded into a used one.
TEST(CycleCountGovernorTest, ResetForgetsWindow) {
  CycleCountGovernor gov(4);
  for (int i = 0; i < 4; ++i) {
    gov.OnQuantum(Sample(1.0, 10));
  }
  ASSERT_TRUE(testing::CopyThroughImage(CycleCountGovernor(4), gov));
  EXPECT_DOUBLE_EQ(gov.AverageBusyMhz(), 0.0);
}

TEST(CycleCountGovernorTest, NameIncludesWindow) {
  EXPECT_STREQ(CycleCountGovernor(4).Name(), "cycles4");
}

}  // namespace
}  // namespace dcs
