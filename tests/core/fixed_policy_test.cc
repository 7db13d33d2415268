#include "src/core/fixed_policy.h"

#include <gtest/gtest.h>

#include "tests/support/image_copy.h"

namespace dcs {
namespace {

UtilizationSample Sample(int step, CoreVoltage voltage = CoreVoltage::kHigh) {
  UtilizationSample s;
  s.step = step;
  s.voltage = voltage;
  return s;
}

TEST(FixedPolicyTest, RequestsTargetOnce) {
  FixedPolicy policy(5);
  const auto first = policy.OnQuantum(Sample(10));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->step, 5);
  // Once at the target, stays silent.
  EXPECT_FALSE(policy.OnQuantum(Sample(5)).has_value());
}

TEST(FixedPolicyTest, ReassertsIfStateDrifts) {
  FixedPolicy policy(5);
  policy.OnQuantum(Sample(10));
  // Something else changed the clock: the policy pins it back.
  const auto again = policy.OnQuantum(Sample(7));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->step, 5);
}

TEST(FixedPolicyTest, AlreadyAtTargetNeverRequests) {
  FixedPolicy policy(10);
  EXPECT_FALSE(policy.OnQuantum(Sample(10)).has_value());
}

TEST(FixedPolicyTest, VoltageRequestIncluded) {
  FixedPolicy policy(5, CoreVoltage::kLow);
  const auto request = policy.OnQuantum(Sample(10, CoreVoltage::kHigh));
  ASSERT_TRUE(request.has_value());
  ASSERT_TRUE(request->voltage.has_value());
  EXPECT_EQ(*request->voltage, CoreVoltage::kLow);
}

TEST(FixedPolicyTest, StepClamped) {
  EXPECT_EQ(FixedPolicy(99).step(), 10);
  EXPECT_EQ(FixedPolicy(-1).step(), 0);
}

TEST(FixedPolicyTest, NameIncludesFrequencyAndVoltage) {
  FixedPolicy policy(5, CoreVoltage::kLow);
  EXPECT_STREQ(policy.Name(), "fixed-132.7MHz-1.23V");
}

// Reset: a fresh policy's snapshot image loaded into a used one.
TEST(FixedPolicyTest, ResetReapplies) {
  FixedPolicy policy(5);
  policy.OnQuantum(Sample(10));
  ASSERT_TRUE(testing::CopyThroughImage(FixedPolicy(5), policy));
  EXPECT_TRUE(policy.OnQuantum(Sample(10)).has_value());
}

}  // namespace
}  // namespace dcs
