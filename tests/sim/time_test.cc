#include "src/sim/time.h"

#include <gtest/gtest.h>

namespace dcs {
namespace {

TEST(SimTimeTest, DefaultIsZero) {
  SimTime t;
  EXPECT_EQ(t.nanos(), 0);
  EXPECT_EQ(t, SimTime::Zero());
  EXPECT_FALSE(t.IsNegative());
}

TEST(SimTimeTest, NamedConstructorsScaleCorrectly) {
  EXPECT_EQ(SimTime::Nanos(7).nanos(), 7);
  EXPECT_EQ(SimTime::Micros(3).nanos(), 3000);
  EXPECT_EQ(SimTime::Millis(2).nanos(), 2000000);
  EXPECT_EQ(SimTime::Seconds(1).nanos(), 1000000000);
}

TEST(SimTimeTest, FromSecondsFRoundsToNearestNanosecond) {
  EXPECT_EQ(SimTime::FromSecondsF(1e-9).nanos(), 1);
  EXPECT_EQ(SimTime::FromSecondsF(1.4e-9).nanos(), 1);
  EXPECT_EQ(SimTime::FromSecondsF(1.6e-9).nanos(), 2);
  EXPECT_EQ(SimTime::FromSecondsF(-1.6e-9).nanos(), -2);
}

TEST(SimTimeTest, FromMicrosF) {
  EXPECT_EQ(SimTime::FromMicrosF(200.0).nanos(), 200000);
  EXPECT_EQ(SimTime::FromMicrosF(0.5).nanos(), 500);
}

TEST(SimTimeTest, ConversionAccessors) {
  const SimTime t = SimTime::Millis(1500);
  EXPECT_EQ(t.micros(), 1500000);
  EXPECT_EQ(t.millis(), 1500);
  EXPECT_DOUBLE_EQ(t.ToSeconds(), 1.5);
  EXPECT_DOUBLE_EQ(t.ToMicrosF(), 1.5e6);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::Millis(10);
  const SimTime b = SimTime::Millis(4);
  EXPECT_EQ((a + b).millis(), 14);
  EXPECT_EQ((a - b).millis(), 6);
  EXPECT_EQ((a * 3).millis(), 30);
  EXPECT_EQ((3 * a).millis(), 30);
  EXPECT_EQ((a / 2).millis(), 5);
  EXPECT_EQ(a / b, 2);
  EXPECT_EQ((a % b).millis(), 2);
}

TEST(SimTimeTest, CompoundAssignment) {
  SimTime t = SimTime::Millis(1);
  t += SimTime::Millis(2);
  EXPECT_EQ(t.millis(), 3);
  t -= SimTime::Millis(1);
  EXPECT_EQ(t.millis(), 2);
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(SimTime::Micros(1), SimTime::Micros(2));
  EXPECT_LE(SimTime::Micros(2), SimTime::Micros(2));
  EXPECT_GT(SimTime::Millis(1), SimTime::Micros(999));
  EXPECT_EQ(SimTime::Seconds(1), SimTime::Millis(1000));
}

TEST(SimTimeTest, MaxIsLargerThanAnyExperimentHorizon) {
  EXPECT_GT(SimTime::Max(), SimTime::Seconds(1000000));
}

TEST(SimTimeTest, ToStringPicksUnits) {
  EXPECT_EQ(SimTime::Seconds(3).ToString(), "3.000s");
  EXPECT_EQ(SimTime::Millis(12).ToString(), "12.000ms");
  EXPECT_EQ(SimTime::Micros(200).ToString(), "200.000us");
  EXPECT_EQ(SimTime::Nanos(5).ToString(), "5ns");
}

TEST(SimTimeTest, NegativeDurationsRender) {
  EXPECT_EQ((SimTime::Zero() - SimTime::Seconds(2)).ToString(), "-2.000s");
  EXPECT_TRUE((SimTime::Zero() - SimTime::Nanos(1)).IsNegative());
}

}  // namespace
}  // namespace dcs
