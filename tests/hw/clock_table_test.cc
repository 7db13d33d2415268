#include "src/hw/clock_table.h"

#include <gtest/gtest.h>

namespace dcs {
namespace {

// The paper's Table 3 lists these frequencies (MHz) for the SA-1100.
constexpr double kPaperFrequencies[kNumClockSteps] = {
    59.0, 73.7, 88.5, 103.2, 118.0, 132.7, 147.5, 162.2, 176.9, 191.7, 206.4};

TEST(ClockTableTest, ElevenSteps) { EXPECT_EQ(kNumClockSteps, 11); }

TEST(ClockTableTest, MatchesPaperFrequenciesToTenthMhz) {
  for (int k = 0; k < kNumClockSteps; ++k) {
    EXPECT_NEAR(ClockTable::FrequencyMhz(k), kPaperFrequencies[k], 0.06)
        << "step " << k;
  }
}

TEST(ClockTableTest, FrequenciesDerivedFromCrystal) {
  for (int k = 0; k < kNumClockSteps; ++k) {
    EXPECT_DOUBLE_EQ(ClockTable::FrequencyMhz(k), (16 + 4 * k) * kCrystalMhz);
  }
}

TEST(ClockTableTest, FrequenciesStrictlyIncreasing) {
  for (int k = 1; k < kNumClockSteps; ++k) {
    EXPECT_GT(ClockTable::FrequencyMhz(k), ClockTable::FrequencyMhz(k - 1));
  }
}

TEST(ClockTableTest, ClampBounds) {
  EXPECT_EQ(ClockTable::Clamp(-3), 0);
  EXPECT_EQ(ClockTable::Clamp(0), 0);
  EXPECT_EQ(ClockTable::Clamp(10), 10);
  EXPECT_EQ(ClockTable::Clamp(42), 10);
}

TEST(ClockTableTest, OutOfRangeStepsClampInFrequencyLookups) {
  EXPECT_DOUBLE_EQ(ClockTable::FrequencyMhz(-1), ClockTable::FrequencyMhz(0));
  EXPECT_DOUBLE_EQ(ClockTable::FrequencyMhz(99), ClockTable::FrequencyMhz(10));
}

TEST(ClockTableTest, StepForAtLeastMhzExactAndBetween) {
  EXPECT_EQ(ClockTable::StepForAtLeastMhz(58.9), 0);  // step 0 is 58.9824 MHz
  EXPECT_EQ(ClockTable::StepForAtLeastMhz(60.0), 1);
  EXPECT_EQ(ClockTable::StepForAtLeastMhz(132.0), 5);
  EXPECT_EQ(ClockTable::StepForAtLeastMhz(132.8), 6);
  EXPECT_EQ(ClockTable::StepForAtLeastMhz(0.0), 0);
}

TEST(ClockTableTest, StepForAtLeastMhzSaturatesAtTop) {
  EXPECT_EQ(ClockTable::StepForAtLeastMhz(500.0), 10);
}

TEST(ClockTableTest, NearestStep) {
  EXPECT_EQ(ClockTable::NearestStep(59.0), 0);
  EXPECT_EQ(ClockTable::NearestStep(65.0), 0);
  EXPECT_EQ(ClockTable::NearestStep(67.0), 1);
  EXPECT_EQ(ClockTable::NearestStep(206.4), 10);
  EXPECT_EQ(ClockTable::NearestStep(1000.0), 10);
}

TEST(ClockTableTest, FrequencyHz) {
  EXPECT_DOUBLE_EQ(ClockTable::FrequencyHz(10), ClockTable::FrequencyMhz(10) * 1e6);
}

TEST(ClockTableTest, SwitchStallIs200Microseconds) {
  EXPECT_EQ(kClockSwitchStall, SimTime::Micros(200));
}

TEST(ClockTableTest, FrequenciesArrayMatchesLookups) {
  const auto& freqs = clock_table_internal::kFrequencies;
  for (int k = 0; k < kNumClockSteps; ++k) {
    EXPECT_DOUBLE_EQ(freqs[static_cast<std::size_t>(k)], ClockTable::FrequencyMhz(k));
  }
}

}  // namespace
}  // namespace dcs
