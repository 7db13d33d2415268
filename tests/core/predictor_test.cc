#include "src/core/predictor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/sim/rng.h"
#include "tests/support/image_copy.h"
#include <vector>

namespace dcs {
namespace {

using testing::CopyThroughImage;

TEST(PastPredictorTest, ReturnsLastUtilization) {
  PastPredictor past;
  EXPECT_DOUBLE_EQ(past.Update(0.3), 0.3);
  EXPECT_DOUBLE_EQ(past.Update(0.9), 0.9);
  EXPECT_DOUBLE_EQ(past.Current(), 0.9);
}

TEST(PastPredictorTest, ClampsInput) {
  PastPredictor past;
  EXPECT_DOUBLE_EQ(past.Update(1.7), 1.0);
  EXPECT_DOUBLE_EQ(past.Update(-0.2), 0.0);
}

TEST(PastPredictorTest, ResetClears) {
  PastPredictor past;
  past.Update(0.8);
  past.Reset();
  EXPECT_DOUBLE_EQ(past.Current(), 0.0);
}

TEST(PastPredictorTest, NameAndClone) {
  PastPredictor past;
  EXPECT_EQ(past.Name(), "PAST");
  past.Update(0.4);
  PastPredictor clone;
  ASSERT_TRUE(CopyThroughImage(past, clone));
  EXPECT_DOUBLE_EQ(clone.Current(), 0.4);
}

TEST(AvgNPredictorTest, Avg0EquivalentToPast) {
  AvgNPredictor avg0(0);
  PastPredictor past;
  for (double u : {0.1, 0.9, 0.4, 1.0, 0.0}) {
    EXPECT_DOUBLE_EQ(avg0.Update(u), past.Update(u));
  }
}

TEST(AvgNPredictorTest, RecursionMatchesDefinition) {
  // W_t = (N*W + U)/(N+1).
  AvgNPredictor avg(3);
  double w = 0.0;
  for (double u : {1.0, 0.5, 0.25, 0.75}) {
    w = (3 * w + u) / 4;
    EXPECT_DOUBLE_EQ(avg.Update(u), w);
  }
}

TEST(AvgNPredictorTest, PaperTable1Sequence) {
  // Table 1 of the paper: AVG9 fed 15 active quanta then idle quanta,
  // values printed as <W * 10^4>.
  AvgNPredictor avg(9);
  const std::vector<int> active_expected = {1000, 1900, 2710, 3439, 4095, 4686,
                                            5217, 5695, 6126, 6513, 6862, 7176,
                                            7458, 7712, 7941};
  for (const int expected : active_expected) {
    const double w = avg.Update(1.0);
    EXPECT_EQ(static_cast<int>(std::floor(w * 10000.0 + 0.5)), expected);
  }
  const std::vector<int> idle_expected = {7147, 6432, 5789, 5210, 4689};
  for (const int expected : idle_expected) {
    const double w = avg.Update(0.0);
    EXPECT_EQ(static_cast<int>(std::floor(w * 10000.0 + 0.5)), expected);
  }
}

TEST(AvgNPredictorTest, ReachabilityLag) {
  // "Starting from an idle state, the clock will not scale to 206MHz for
  // 120 ms (12 quanta)" with AVG9 and a 70% threshold.
  AvgNPredictor avg(9);
  int quanta = 0;
  while (avg.Update(1.0) <= 0.70) {
    ++quanta;
  }
  EXPECT_EQ(quanta + 1, 12);
}

TEST(AvgNPredictorTest, AsymmetricDriftAtThreshold) {
  // Table 1's observation: at W ~= 70%, one fully active quantum raises W to
  // 73% but one idle quantum lowers it to 63% — a downward bias.
  AvgNPredictor up(9);
  AvgNPredictor down(9);
  // Prime both to exactly 0.70.
  for (int i = 0; i < 1000; ++i) {
    up.Update(0.70);
    down.Update(0.70);
  }
  EXPECT_NEAR(up.Update(1.0), 0.73, 0.001);
  EXPECT_NEAR(down.Update(0.0), 0.63, 0.001);
}

TEST(AvgNPredictorTest, StaysInUnitInterval) {
  AvgNPredictor avg(5);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double w = avg.Update(rng.NextDouble() * 2.0 - 0.5);  // deliberately out of range
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST(AvgNPredictorTest, ConvergesToConstantInput) {
  AvgNPredictor avg(9);
  for (int i = 0; i < 500; ++i) {
    avg.Update(0.42);
  }
  EXPECT_NEAR(avg.Current(), 0.42, 1e-6);
}

TEST(AvgNPredictorTest, CloneIsIndependent) {
  AvgNPredictor avg(4);
  avg.Update(0.8);
  AvgNPredictor clone(4);
  ASSERT_TRUE(CopyThroughImage(avg, clone));
  avg.Update(0.0);
  EXPECT_NE(clone.Current(), avg.Current());
}

TEST(AvgNPredictorTest, NameIncludesN) {
  EXPECT_EQ(AvgNPredictor(9).Name(), "AVG9");
  EXPECT_EQ(AvgNPredictor(0).Name(), "AVG0");
}

TEST(SlidingWindowPredictorTest, MeanOfWindow) {
  SlidingWindowPredictor win(3);
  EXPECT_DOUBLE_EQ(win.Update(0.3), 0.3);
  EXPECT_DOUBLE_EQ(win.Update(0.6), 0.45);
  EXPECT_DOUBLE_EQ(win.Update(0.9), 0.6);
  EXPECT_DOUBLE_EQ(win.Update(0.0), 0.5);  // 0.6, 0.9, 0.0
}

TEST(SlidingWindowPredictorTest, ForgetsOldSamplesCompletely) {
  SlidingWindowPredictor win(2);
  win.Update(1.0);
  win.Update(0.0);
  win.Update(0.0);
  EXPECT_DOUBLE_EQ(win.Current(), 0.0);
}

TEST(SlidingWindowPredictorTest, ResetAndName) {
  SlidingWindowPredictor win(10);
  EXPECT_EQ(win.Name(), "WIN10");
  win.Update(1.0);
  win.Reset();
  EXPECT_DOUBLE_EQ(win.Current(), 0.0);
}

// Property sweep: every predictor maps [0,1] inputs to [0,1] outputs and
// converges on constant input.  A clone is a fresh predictor of the same
// configuration loaded with the original's snapshot image, as the fleet
// clones a device.
class PredictorPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<UtilizationPredictor> Make() const {
    const int id = GetParam();
    if (id == 0) {
      return std::make_unique<PastPredictor>();
    }
    if (id <= 10) {
      return std::make_unique<AvgNPredictor>(id);
    }
    return std::make_unique<SlidingWindowPredictor>(id - 10);
  }
};

TEST_P(PredictorPropertyTest, OutputsInUnitInterval) {
  auto predictor = Make();
  Rng rng(GetParam() + 100);
  for (int i = 0; i < 2000; ++i) {
    const double w = predictor->Update(rng.NextDouble());
    ASSERT_GE(w, 0.0);
    ASSERT_LE(w, 1.0);
  }
}

TEST_P(PredictorPropertyTest, ConvergesOnConstantInput) {
  auto predictor = Make();
  for (int i = 0; i < 2000; ++i) {
    predictor->Update(0.37);
  }
  EXPECT_NEAR(predictor->Current(), 0.37, 1e-3);
}

TEST_P(PredictorPropertyTest, CloneMatchesOriginal) {
  auto predictor = Make();
  Rng rng(GetParam() + 200);
  for (int i = 0; i < 50; ++i) {
    predictor->Update(rng.NextDouble());
  }
  auto clone = Make();
  ASSERT_TRUE(CopyThroughImage(*predictor, *clone));
  EXPECT_DOUBLE_EQ(clone->Current(), predictor->Current());
  // Both evolve identically afterwards.
  for (int i = 0; i < 50; ++i) {
    const double u = rng.NextDouble();
    EXPECT_DOUBLE_EQ(clone->Update(u), predictor->Update(u));
  }
}

TEST_P(PredictorPropertyTest, ResetRoundTripMatchesFreshInstance) {
  // Update -> Reset() must return the predictor to its factory state: the
  // replayed sequence produces exactly the outputs of a never-used instance.
  auto used = Make();
  auto fresh = Make();
  Rng rng(GetParam() + 300);
  for (int i = 0; i < 100; ++i) {
    used->Update(rng.NextDouble());
  }
  used->Reset();
  EXPECT_DOUBLE_EQ(used->Current(), 0.0);
  for (int i = 0; i < 100; ++i) {
    const double u = rng.NextDouble();
    EXPECT_DOUBLE_EQ(used->Update(u), fresh->Update(u));
  }
}

TEST_P(PredictorPropertyTest, CloneResetRoundTrip) {
  // Clone -> Reset() on the clone leaves the original untouched, and the
  // reset clone behaves like a fresh instance.
  auto original = Make();
  Rng rng(GetParam() + 400);
  for (int i = 0; i < 60; ++i) {
    original->Update(rng.NextDouble());
  }
  const double before = original->Current();
  auto clone = Make();
  ASSERT_TRUE(CopyThroughImage(*original, *clone));
  clone->Reset();
  EXPECT_DOUBLE_EQ(original->Current(), before);
  EXPECT_DOUBLE_EQ(clone->Current(), 0.0);
  EXPECT_EQ(clone->Name(), original->Name());
  auto fresh = Make();
  for (int i = 0; i < 60; ++i) {
    const double u = rng.NextDouble();
    EXPECT_DOUBLE_EQ(clone->Update(u), fresh->Update(u));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPredictors, PredictorPropertyTest, ::testing::Range(0, 16));

TEST(AvgNPredictorTest, Avg0TracksPastThroughCloneAndReset) {
  // AVG_0 degenerates to PAST, and the equivalence survives a clone through
  // the snapshot image and Reset().
  AvgNPredictor avg0(0);
  PastPredictor past;
  for (double u : {0.2, 0.8, 0.5}) {
    EXPECT_DOUBLE_EQ(avg0.Update(u), past.Update(u));
  }
  AvgNPredictor avg0_clone(0);
  PastPredictor past_clone;
  ASSERT_TRUE(CopyThroughImage(avg0, avg0_clone));
  ASSERT_TRUE(CopyThroughImage(past, past_clone));
  EXPECT_DOUBLE_EQ(avg0_clone.Current(), past_clone.Current());
  for (double u : {1.0, 0.0, 0.66}) {
    EXPECT_DOUBLE_EQ(avg0_clone.Update(u), past_clone.Update(u));
  }
  avg0.Reset();
  past.Reset();
  for (double u : {0.9, 0.1}) {
    EXPECT_DOUBLE_EQ(avg0.Update(u), past.Update(u));
  }
}

}  // namespace
}  // namespace dcs
