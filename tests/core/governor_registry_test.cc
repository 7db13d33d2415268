#include "src/core/governor_registry.h"

#include <gtest/gtest.h>

#include "src/core/fixed_policy.h"
#include "src/core/interval_governor.h"
#include "src/sim/rng.h"

namespace dcs {
namespace {

TEST(GovernorRegistryTest, NoneAndEmptyReturnNullWithoutError) {
  std::string error = "sentinel";
  EXPECT_EQ(MakeGovernor("none", &error), nullptr);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(MakeGovernor("", &error), nullptr);
  EXPECT_TRUE(error.empty());
}

TEST(GovernorRegistryTest, FixedSpecs) {
  std::string error;
  auto policy = MakeGovernor("fixed-206.4", &error);
  ASSERT_NE(policy, nullptr) << error;
  EXPECT_STREQ(policy->Name(), "fixed-206.4MHz-1.50V");

  auto low = MakeGovernor("fixed-132.7@1.23", &error);
  ASSERT_NE(low, nullptr) << error;
  EXPECT_STREQ(low->Name(), "fixed-132.7MHz-1.23V");
}

TEST(GovernorRegistryTest, FixedSnapToNearestStep) {
  std::string error;
  auto policy = MakeGovernor("fixed-130", &error);
  ASSERT_NE(policy, nullptr) << error;
  EXPECT_STREQ(policy->Name(), "fixed-132.7MHz-1.50V");
}

TEST(GovernorRegistryTest, FixedUnsafeVoltageRejected) {
  std::string error;
  EXPECT_EQ(MakeGovernor("fixed-206.4@1.23", &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(GovernorRegistryTest, FixedBadFrequencyRejected) {
  std::string error;
  EXPECT_EQ(MakeGovernor("fixed-abc", &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(GovernorRegistryTest, IntervalSpecs) {
  std::string error;
  auto past = MakeGovernor("PAST-peg-peg-93-98", &error);
  ASSERT_NE(past, nullptr) << error;
  EXPECT_STREQ(past->Name(), "PAST-peg-peg-93/98");

  auto avg = MakeGovernor("AVG9-one-double-50-70-vs", &error);
  ASSERT_NE(avg, nullptr) << error;
  EXPECT_STREQ(avg->Name(), "AVG9-one-double-50/70-vs");

  auto win = MakeGovernor("WIN10-one-one-50-70", &error);
  ASSERT_NE(win, nullptr) << error;
  EXPECT_STREQ(win->Name(), "WIN10-one-one-50/70");
}

TEST(GovernorRegistryTest, SpecsAreCaseInsensitive) {
  std::string error;
  EXPECT_NE(MakeGovernor("past-PEG-Peg-93-98", &error), nullptr) << error;
  EXPECT_NE(MakeGovernor("ONDEMAND", &error), nullptr) << error;
}

TEST(GovernorRegistryTest, BadPredictorRejected) {
  std::string error;
  EXPECT_EQ(MakeGovernor("FOO-one-one-50-70", &error), nullptr);
  EXPECT_NE(error.find("predictor"), std::string::npos);
}

TEST(GovernorRegistryTest, BadSpeedPolicyRejected) {
  std::string error;
  EXPECT_EQ(MakeGovernor("PAST-one-warp-50-70", &error), nullptr);
  EXPECT_NE(error.find("speed policy"), std::string::npos);
}

TEST(GovernorRegistryTest, BadThresholdsRejected) {
  std::string error;
  EXPECT_EQ(MakeGovernor("PAST-one-one-90-50", &error), nullptr);  // lo > hi
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(MakeGovernor("PAST-one-one-50-170", &error), nullptr);  // > 100
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(MakeGovernor("PAST-one-one-xx-70", &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(GovernorRegistryTest, WrongArityRejected) {
  std::string error;
  EXPECT_EQ(MakeGovernor("PAST-one-one-50", &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(GovernorRegistryTest, CyclesSpecs) {
  std::string error;
  auto policy = MakeGovernor("cycles4", &error);
  ASSERT_NE(policy, nullptr) << error;
  EXPECT_STREQ(policy->Name(), "cycles4");
  EXPECT_EQ(MakeGovernor("cycles0", &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(MakeGovernor("cyclesx", &error), nullptr);
}

TEST(GovernorRegistryTest, NonFiniteNumbersRejected) {
  // nan fails every comparison, so it slipped past each range check.
  for (const char* spec : {"flat-nan", "flat-inf", "deadline-nan", "PAST-peg-peg-nan-98",
                           "PAST-peg-peg-93-nan", "pid-inf-0-0", "pid-0-nan-0", "adaptive-nan",
                           "adaptive-inf", "fixed-nan", "fixed-inf@1.23"}) {
    std::string error;
    EXPECT_EQ(MakeGovernor(spec, &error), nullptr) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(GovernorRegistryTest, ModernGovernors) {
  std::string error;
  EXPECT_NE(MakeGovernor("ondemand", &error), nullptr);
  EXPECT_NE(MakeGovernor("schedutil", &error), nullptr);
}

TEST(GovernorRegistryTest, NullErrorPointerIsSafe) {
  EXPECT_EQ(MakeGovernor("garbage-spec"), nullptr);
  EXPECT_NE(MakeGovernor("ondemand"), nullptr);
}

TEST(GovernorRegistryTest, RandomSpecStringsNeverCrash) {
  // Registry robustness: arbitrary byte salad must either parse or fail
  // cleanly with an error message — never crash or return a half-built
  // governor.
  Rng rng(0xF00D);
  const std::string alphabet = "abcdefgPASTWINCYLE0123456789-@./%";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string spec;
    const int length = static_cast<int>(rng.UniformInt(0, 24));
    for (int i = 0; i < length; ++i) {
      spec += alphabet[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(alphabet.size()) - 1))];
    }
    std::string error;
    auto governor = MakeGovernor(spec, &error);
    if (governor != nullptr) {
      // Whatever parsed must behave like a policy.
      UtilizationSample sample;
      sample.step = 5;
      sample.utilization = 0.5;
      (void)governor->OnQuantum(sample);
      EXPECT_NE(governor->Name(), nullptr);
    }
  }
}

}  // namespace
}  // namespace dcs
