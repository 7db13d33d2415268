// FaultPlan spec-grammar tests: accepted forms, left-to-right override
// order, storm preset, and every rejection path.

#include "src/fault/fault_plan.h"

#include <string>

#include <gtest/gtest.h>

namespace dcs {
namespace {

TEST(FaultPlanTest, DefaultIsInactive) {
  FaultPlan plan;
  EXPECT_FALSE(plan.Active());
  EXPECT_EQ(plan.seed, 1u);
  for (int c = 0; c < kNumFaultClasses; ++c) {
    EXPECT_EQ(plan.p(static_cast<FaultClass>(c)), 0.0);
  }
}

TEST(FaultPlanTest, EmptyAndNoneParseToInactive) {
  for (const char* spec : {"", "none", "NONE", "  none  "}) {
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::Parse(spec, &plan, &error)) << spec << ": " << error;
    EXPECT_FALSE(plan.Active()) << spec;
  }
}

TEST(FaultPlanTest, PerClassProbabilitiesAndSeed) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("tick-jitter=20%,daq-drop=0.05,seed=9", &plan));
  EXPECT_TRUE(plan.Active());
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_DOUBLE_EQ(plan.p(FaultClass::kTickJitter), 0.20);
  EXPECT_DOUBLE_EQ(plan.p(FaultClass::kDaqDrop), 0.05);
  EXPECT_EQ(plan.p(FaultClass::kClockFail), 0.0);
}

TEST(FaultPlanTest, EveryClassNameParses) {
  for (int c = 0; c < kNumFaultClasses; ++c) {
    const std::string spec = std::string(FaultClassName(static_cast<FaultClass>(c))) + "=1%";
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::Parse(spec, &plan)) << spec;
    EXPECT_DOUBLE_EQ(plan.p(static_cast<FaultClass>(c)), 0.01) << spec;
  }
}

TEST(FaultPlanTest, CaseAndWhitespaceInsensitive) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse(" Tick-Jitter = 5% , SEED = 4 ", &plan));
  EXPECT_DOUBLE_EQ(plan.p(FaultClass::kTickJitter), 0.05);
  EXPECT_EQ(plan.seed, 4u);
}

TEST(FaultPlanTest, StormPresetScalesWithIntensity) {
  const FaultPlan full = FaultPlan::Storm(1.0);
  const FaultPlan half = FaultPlan::Storm(0.5);
  EXPECT_TRUE(full.Active());
  for (int c = 0; c < kNumFaultClasses; ++c) {
    const auto cls = static_cast<FaultClass>(c);
    EXPECT_GT(full.p(cls), 0.0) << FaultClassName(cls);
    EXPECT_DOUBLE_EQ(half.p(cls), full.p(cls) * 0.5) << FaultClassName(cls);
  }
  EXPECT_FALSE(FaultPlan::Storm(0.0).Active());
}

TEST(FaultPlanTest, ItemsApplyLeftToRight) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("storm=0.5,brownout=0", &plan));
  EXPECT_EQ(plan.p(FaultClass::kBrownout), 0.0);
  EXPECT_GT(plan.p(FaultClass::kTickJitter), 0.0);

  // And the reverse order: storm wins.
  ASSERT_TRUE(FaultPlan::Parse("brownout=0,storm=0.5", &plan));
  EXPECT_GT(plan.p(FaultClass::kBrownout), 0.0);
}

TEST(FaultPlanTest, StormPreservesEarlierSeed) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("seed=42,storm=1", &plan));
  EXPECT_EQ(plan.seed, 42u);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "bogus-class=0.5",   // unknown class
      "tick-jitter",       // missing '='
      "tick-jitter=",      // missing value
      "tick-jitter=1.5",   // probability > 1
      "tick-jitter=150%",  // percentage > 100
      "tick-jitter=-0.1",  // negative
      "tick-jitter=abc",   // not a number
      "seed=abc",          // non-numeric seed
      "seed=-3",           // negative seed
      "storm=2",           // intensity > 1
      ",,",                // empty items
      "none,tick-jitter=1",  // "none" only stands alone
  };
  for (const char* spec : bad) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::Parse(spec, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
    // A failed parse must leave the plan in its default (inactive) state.
    EXPECT_FALSE(plan.Active()) << spec;
    EXPECT_EQ(plan.seed, 1u) << spec;
  }
}

TEST(FaultPlanTest, RejectsNonFiniteProbabilities) {
  // nan passes both range checks of a probability, and parsed as a plan
  // that silently injects nothing.
  for (const char* spec : {"storm=nan", "storm=inf", "tick-jitter=nan", "daq-drop=nan%",
                           "clock-fail=-inf"}) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::Parse(spec, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(FaultPlanTest, DescribeRoundTrips) {
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("storm=0.7,clock-fail=2%,seed=19", &plan));
  FaultPlan reparsed;
  ASSERT_TRUE(FaultPlan::Parse(plan.Describe(), &reparsed));
  EXPECT_EQ(reparsed.seed, plan.seed);
  // Describe prints %g (6 significant digits), so allow a sub-ulp-of-%g slop.
  for (int c = 0; c < kNumFaultClasses; ++c) {
    const auto cls = static_cast<FaultClass>(c);
    EXPECT_NEAR(reparsed.p(cls), plan.p(cls), 1e-12) << FaultClassName(cls);
  }
}

}  // namespace
}  // namespace dcs
