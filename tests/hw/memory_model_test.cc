#include "src/hw/memory_model.h"

#include <gtest/gtest.h>

namespace dcs {
namespace {

// Table 3, verbatim.
constexpr int kWord[kNumClockSteps] = {11, 11, 11, 11, 13, 14, 14, 15, 18, 19, 20};
constexpr int kLine[kNumClockSteps] = {39, 39, 39, 39, 41, 42, 49, 50, 60, 61, 69};

TEST(MemoryModelTest, Table3WordCycles) {
  for (int k = 0; k < kNumClockSteps; ++k) {
    EXPECT_EQ(MemoryModel::WordAccessCycles(k), kWord[k]) << "step " << k;
  }
}

TEST(MemoryModelTest, Table3LineCycles) {
  for (int k = 0; k < kNumClockSteps; ++k) {
    EXPECT_EQ(MemoryModel::LineFillCycles(k), kLine[k]) << "step " << k;
  }
}

TEST(MemoryModelTest, CyclesNonDecreasingWithFrequency) {
  for (int k = 1; k < kNumClockSteps; ++k) {
    EXPECT_GE(MemoryModel::WordAccessCycles(k), MemoryModel::WordAccessCycles(k - 1));
    EXPECT_GE(MemoryModel::LineFillCycles(k), MemoryModel::LineFillCycles(k - 1));
  }
}

TEST(MemoryModelTest, PureComputeMixFactorIsOne) {
  const MemoryProfile none;
  for (int k = 0; k < kNumClockSteps; ++k) {
    EXPECT_DOUBLE_EQ(MemoryModel::MixFactor(k, none), 1.0);
  }
}

TEST(MemoryModelTest, MixFactorGrowsWithMemoryIntensity) {
  const MemoryProfile light{5.0, 2.0};
  const MemoryProfile heavy{25.0, 10.0};
  for (int k = 0; k < kNumClockSteps; ++k) {
    EXPECT_GT(MemoryModel::MixFactor(k, heavy), MemoryModel::MixFactor(k, light));
    EXPECT_GT(MemoryModel::MixFactor(k, light), 1.0);
  }
}

TEST(MemoryModelTest, MixFactorClosedForm) {
  const MemoryProfile p{20.0, 8.0};
  // Step 5 (132.7 MHz): 1 + 20*14/1000 + 8*42/1000 = 1.616.
  EXPECT_DOUBLE_EQ(MemoryModel::MixFactor(5, p), 1.616);
  // Step 10: 1 + 20*20/1000 + 8*69/1000 = 1.952.
  EXPECT_DOUBLE_EQ(MemoryModel::MixFactor(10, p), 1.952);
}

TEST(MemoryModelTest, PureComputeThroughputScalesLinearly) {
  const MemoryProfile none;
  // Exact PLL multiplier ratio: (16 + 4*10) / 16 = 3.5.
  EXPECT_NEAR(MemoryModel::EffectiveBaseHz(10, none) / MemoryModel::EffectiveBaseHz(0, none),
              3.5, 1e-9);
}

TEST(MemoryModelTest, MemoryBoundThroughputScalesSublinearly) {
  const MemoryProfile heavy{25.0, 10.0};
  const double ratio =
      MemoryModel::EffectiveBaseHz(10, heavy) / MemoryModel::EffectiveBaseHz(0, heavy);
  EXPECT_LT(ratio, 3.5);
  EXPECT_GT(ratio, 1.0);
}

TEST(MemoryModelTest, Figure9PlateauBetween162And177) {
  // For the MPEG profile, the throughput gain from step 7 -> 8 nearly
  // vanishes (the paper's plateau), while neighbouring transitions gain
  // several percent.
  const MemoryProfile mpeg{20.0, 8.0};
  const double gain_7_8 =
      MemoryModel::EffectiveBaseHz(8, mpeg) / MemoryModel::EffectiveBaseHz(7, mpeg);
  const double gain_6_7 =
      MemoryModel::EffectiveBaseHz(7, mpeg) / MemoryModel::EffectiveBaseHz(6, mpeg);
  const double gain_8_9 =
      MemoryModel::EffectiveBaseHz(9, mpeg) / MemoryModel::EffectiveBaseHz(8, mpeg);
  EXPECT_LT(gain_7_8, 1.02);
  EXPECT_GT(gain_6_7, 1.04);
  EXPECT_GT(gain_8_9, 1.04);
}

TEST(MemoryModelTest, WallTimeForWorkRoundTrip) {
  const MemoryModel::RateRow rates(MemoryProfile{15.0, 6.0});
  for (int k = 0; k < kNumClockSteps; ++k) {
    const double cycles = 1e6;
    const SimTime wall = rates.WallTimeForWork(cycles, k);
    EXPECT_NEAR(rates.WorkCompletedIn(wall, k), cycles, cycles * 1e-6);
  }
}

TEST(MemoryModelTest, WallTimeMonotoneDecreasingInStep) {
  const MemoryModel::RateRow rates(MemoryProfile{10.0, 4.0});
  for (int k = 1; k < kNumClockSteps; ++k) {
    EXPECT_LE(rates.WallTimeForWork(1e7, k), rates.WallTimeForWork(1e7, k - 1));
  }
}

TEST(MemoryModelTest, ZeroWorkTakesZeroTime) {
  EXPECT_EQ(MemoryModel::RateRow(MemoryProfile{}).WallTimeForWork(0.0, 5), SimTime::Zero());
}

TEST(MemoryModelTest, WorkCompletedInNonPositiveTimeIsZero) {
  const MemoryModel::RateRow rates(MemoryProfile{});
  EXPECT_EQ(rates.WorkCompletedIn(SimTime::Zero(), 5), 0.0);
  EXPECT_EQ(rates.WorkCompletedIn(SimTime::Zero() - SimTime::Millis(1), 5), 0.0);
}

// Property sweep: for every step and a grid of profiles, time(work)/work is
// consistent with EffectiveBaseHz.
class MemoryModelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MemoryModelPropertyTest, EffectiveHzConsistency) {
  const int step = GetParam();
  for (double refs : {0.0, 5.0, 20.0, 50.0}) {
    for (double fills : {0.0, 2.0, 8.0, 20.0}) {
      const MemoryProfile p{refs, fills};
      const double hz = MemoryModel::EffectiveBaseHz(step, p);
      const SimTime wall = MemoryModel::RateRow(p).WallTimeForWork(hz, step);  // 1 second of work
      EXPECT_NEAR(wall.ToSeconds(), 1.0, 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSteps, MemoryModelPropertyTest,
                         ::testing::Range(0, kNumClockSteps));

}  // namespace
}  // namespace dcs
