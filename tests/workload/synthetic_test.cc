#include "src/workload/synthetic.h"

#include <gtest/gtest.h>

#include "src/workload/demand.h"
#include "tests/support/fixtures.h"
#include "tests/support/image_copy.h"
#include "tests/support/synthetic_workloads.h"
#include "tests/workload/harness.h"

namespace dcs {
namespace {

TEST(RectangleWaveSamplesTest, PatternShape) {
  const auto samples = RectangleWaveSamples(9, 1, 20);
  ASSERT_EQ(samples.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(samples[static_cast<std::size_t>(i)], i % 10 < 9 ? 1.0 : 0.0) << i;
  }
}

TEST(RectangleWaveSamplesTest, AllBusyWhenNoIdle) {
  const auto samples = RectangleWaveSamples(5, 0, 10);
  for (const double s : samples) {
    EXPECT_EQ(s, 1.0);
  }
}

TEST(RectangleWaveWorkloadTest, ProducesExpectedUtilizationPattern) {
  WorkloadHarness h;
  h.Add(std::make_unique<RectangleWaveWorkload>(9, 1));
  h.Run(SimTime::Seconds(2));
  const TraceSeries* util = h.kernel->sink().Find("utilization");
  ASSERT_NE(util, nullptr);
  // Mean utilization ~0.9.
  EXPECT_NEAR(h.MeanUtilization(10), 0.9, 0.03);
}

TEST(RectangleWaveWorkloadTest, FiniteCyclesExit) {
  WorkloadHarness h;
  h.Add(std::make_unique<RectangleWaveWorkload>(2, 1, SimTime::Millis(10), 3));
  h.Run(SimTime::Seconds(2));
  EXPECT_EQ(LiveTasks(*h.kernel), 0u);
}

TEST(RectangleWaveWorkloadTest, UtilizationIndependentOfClockStep) {
  // Spin-based busy phases take the same wall time at any frequency.
  WorkloadHarness fast(10);
  WorkloadHarness slow(0);
  fast.Add(std::make_unique<RectangleWaveWorkload>(5, 5));
  slow.Add(std::make_unique<RectangleWaveWorkload>(5, 5));
  fast.Run(SimTime::Seconds(2));
  slow.Run(SimTime::Seconds(2));
  EXPECT_NEAR(fast.MeanUtilization(10), slow.MeanUtilization(10), 0.01);
}

TEST(ConstantUtilizationWorkloadTest, MatchesTarget) {
  for (const double target : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    WorkloadHarness h;
    h.Add(std::make_unique<ConstantUtilizationWorkload>(target));
    h.Run(SimTime::Seconds(1));
    EXPECT_NEAR(h.MeanUtilization(5), target, 0.05) << "target " << target;
  }
}

// Imaged between its spin and its sleep, a copy loaded from the image
// sleeps next, as the original does.
TEST(ConstantUtilizationWorkloadTest, ImageCarriesThePhaseOfItsQuantum) {
  ConstantUtilizationWorkload original(0.25);
  const Workload& as_task = original;  // named as the kernel names it
  EXPECT_STREQ(as_task.Name(), "const_util");
  ASSERT_EQ(original.Next({SimTime::Millis(30)}).kind, Action::Kind::kSpinUntil);
  ConstantUtilizationWorkload copy(0.25);
  ASSERT_TRUE(testing::CopyThroughImage(original, copy));
  const WorkloadContext at_spin_end{SimTime::Micros(32500)};
  const Action want = original.Next(at_spin_end);
  const Action got = copy.Next(at_spin_end);
  EXPECT_EQ(want.kind, Action::Kind::kSleepUntil);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.until, want.until);
}

TEST(ComputeOnceWorkloadTest, CompletesAndExits) {
  WorkloadHarness h;
  auto workload = std::make_unique<ComputeOnceWorkload>(1e6);
  ComputeOnceWorkload* raw = workload.get();
  h.Add(std::move(workload));
  h.Run(SimTime::Seconds(1));
  EXPECT_TRUE(raw->done());
  EXPECT_EQ(LiveTasks(*h.kernel), 0u);
}

TEST(ComputeOnceWorkloadTest, MemoryProfileSlowsExecution) {
  WorkloadHarness h1;
  WorkloadHarness h2;
  auto plain = std::make_unique<ComputeOnceWorkload>(50e6);
  auto heavy = std::make_unique<ComputeOnceWorkload>(50e6, MemoryProfile{25.0, 10.0});
  ComputeOnceWorkload* plain_raw = plain.get();
  ComputeOnceWorkload* heavy_raw = heavy.get();
  h1.Add(std::move(plain));
  h2.Add(std::move(heavy));
  h1.Run(SimTime::Seconds(2));
  h2.Run(SimTime::Seconds(2));
  ASSERT_TRUE(plain_raw->done());
  ASSERT_TRUE(heavy_raw->done());
  EXPECT_GT(heavy_raw->completed_at(), plain_raw->completed_at() * 18 / 10);
}

TEST(PoissonBurstWorkloadTest, GeneratesIntermittentLoad) {
  WorkloadHarness h;
  h.Add(std::make_unique<PoissonBurstWorkload>(SimTime::Millis(50), 20.0));
  h.Run(SimTime::Seconds(5));
  const double util = h.MeanUtilization(10);
  // Bursts of ~20 ms every ~50 ms idle: utilization meaningfully between
  // 0 and 1.
  EXPECT_GT(util, 0.1);
  EXPECT_LT(util, 0.9);
}

TEST(PoissonBurstWorkloadTest, DifferentSeedsDifferentTimelines) {
  WorkloadHarness a(10, 1);
  WorkloadHarness b(10, 2);
  a.Add(std::make_unique<PoissonBurstWorkload>(SimTime::Millis(50), 20.0));
  b.Add(std::make_unique<PoissonBurstWorkload>(SimTime::Millis(50), 20.0));
  a.Run(SimTime::Seconds(2));
  b.Run(SimTime::Seconds(2));
  const TraceSeries* ua = a.kernel->sink().Find("utilization");
  const TraceSeries* ub = b.kernel->sink().Find("utilization");
  ASSERT_NE(ua, nullptr);
  ASSERT_NE(ub, nullptr);
  int differing = 0;
  for (std::size_t i = 0; i < std::min(ua->size(), ub->size()); ++i) {
    if (ua->points()[i].value != ub->points()[i].value) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 10);
}

TEST(DemandHelpersTest, RoundTrip) {
  const MemoryProfile p{20.0, 8.0};
  const double cycles = BaseCyclesForMsAtTop(10.0, p);
  // Milliseconds the demand takes at `step` under the memory model.
  auto ms_at = [&](int step) { return cycles / MemoryModel::EffectiveBaseHz(step, p) * 1e3; };
  EXPECT_NEAR(ms_at(ClockTable::MaxStep()), 10.0, 1e-9);
  // At a lower step the same demand takes longer.
  EXPECT_GT(ms_at(0), 10.0);
}

}  // namespace
}  // namespace dcs
