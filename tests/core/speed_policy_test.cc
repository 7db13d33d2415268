#include "src/core/speed_policy.h"

#include <gtest/gtest.h>

namespace dcs {
namespace {

constexpr int kMin = 0;
constexpr int kMax = 10;

TEST(OneStepPolicyTest, IncrementsAndDecrements) {
  OneStepPolicy one;
  EXPECT_EQ(one.Next(5, ScaleDirection::kUp, kMin, kMax), 6);
  EXPECT_EQ(one.Next(5, ScaleDirection::kDown, kMin, kMax), 4);
}

TEST(OneStepPolicyTest, ClampsAtBounds) {
  OneStepPolicy one;
  EXPECT_EQ(one.Next(10, ScaleDirection::kUp, kMin, kMax), 10);
  EXPECT_EQ(one.Next(0, ScaleDirection::kDown, kMin, kMax), 0);
}

TEST(OneStepPolicyTest, RespectsNarrowedRange) {
  OneStepPolicy one;
  EXPECT_EQ(one.Next(7, ScaleDirection::kUp, 3, 7), 7);
  EXPECT_EQ(one.Next(3, ScaleDirection::kDown, 3, 7), 3);
}

TEST(DoubleStepPolicyTest, DoublesAfterIncrement) {
  // "Since the lowest clock step on the Itsy is zero, we increment the clock
  // index value before doubling it."
  DoubleStepPolicy dbl;
  EXPECT_EQ(dbl.Next(0, ScaleDirection::kUp, kMin, kMax), 2);
  EXPECT_EQ(dbl.Next(2, ScaleDirection::kUp, kMin, kMax), 6);
  EXPECT_EQ(dbl.Next(4, ScaleDirection::kUp, kMin, kMax), 10);
}

TEST(DoubleStepPolicyTest, UpEscapesStepZero) {
  DoubleStepPolicy dbl;
  EXPECT_GT(dbl.Next(0, ScaleDirection::kUp, kMin, kMax), 0);
}

TEST(DoubleStepPolicyTest, UpSaturates) {
  DoubleStepPolicy dbl;
  EXPECT_EQ(dbl.Next(6, ScaleDirection::kUp, kMin, kMax), 10);
  EXPECT_EQ(dbl.Next(10, ScaleDirection::kUp, kMin, kMax), 10);
}

TEST(DoubleStepPolicyTest, DownHalves) {
  DoubleStepPolicy dbl;
  EXPECT_EQ(dbl.Next(10, ScaleDirection::kDown, kMin, kMax), 5);
  EXPECT_EQ(dbl.Next(5, ScaleDirection::kDown, kMin, kMax), 2);
  EXPECT_EQ(dbl.Next(1, ScaleDirection::kDown, kMin, kMax), 0);
  EXPECT_EQ(dbl.Next(0, ScaleDirection::kDown, kMin, kMax), 0);
}

TEST(PegStepPolicyTest, PegsToExtremes) {
  PegStepPolicy peg;
  for (int step = 0; step <= 10; ++step) {
    EXPECT_EQ(peg.Next(step, ScaleDirection::kUp, kMin, kMax), kMax);
    EXPECT_EQ(peg.Next(step, ScaleDirection::kDown, kMin, kMax), kMin);
  }
}

TEST(PegStepPolicyTest, PegsToConfiguredRange) {
  PegStepPolicy peg;
  EXPECT_EQ(peg.Next(5, ScaleDirection::kUp, 2, 8), 8);
  EXPECT_EQ(peg.Next(5, ScaleDirection::kDown, 2, 8), 2);
}

TEST(SpeedPolicyFactoryTest, KnownNames) {
  EXPECT_NE(MakeSpeedPolicy("one"), nullptr);
  EXPECT_NE(MakeSpeedPolicy("double"), nullptr);
  EXPECT_NE(MakeSpeedPolicy("peg"), nullptr);
  EXPECT_EQ(MakeSpeedPolicy("warp"), nullptr);
  EXPECT_EQ(MakeSpeedPolicy(""), nullptr);
}

TEST(SpeedPolicyFactoryTest, NamesRoundTrip) {
  for (const char* name : {"one", "double", "peg"}) {
    EXPECT_EQ(MakeSpeedPolicy(name)->Name(), name);
  }
}

// Property: every policy's output is within bounds and moves (weakly) in the
// requested direction.
class SpeedPolicyPropertyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SpeedPolicyPropertyTest, MovesWeaklyInDirectionWithinBounds) {
  auto policy = MakeSpeedPolicy(GetParam());
  ASSERT_NE(policy, nullptr);
  for (int step = 0; step <= 10; ++step) {
    const int up = policy->Next(step, ScaleDirection::kUp, kMin, kMax);
    const int down = policy->Next(step, ScaleDirection::kDown, kMin, kMax);
    EXPECT_GE(up, kMin);
    EXPECT_LE(up, kMax);
    EXPECT_GE(down, kMin);
    EXPECT_LE(down, kMax);
    EXPECT_GE(up, step == kMax ? kMax : step);
    EXPECT_LE(down, step == kMin ? kMin : step);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SpeedPolicyPropertyTest,
                         ::testing::Values("one", "double", "peg"));

}  // namespace
}  // namespace dcs
