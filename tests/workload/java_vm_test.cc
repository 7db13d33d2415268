#include "src/workload/java_vm.h"

#include <gtest/gtest.h>

#include "tests/support/fixtures.h"
#include "tests/workload/harness.h"

namespace dcs {
namespace {

TEST(JavaPollWorkloadTest, SteadyPollingUtilizationAtTopSpeed) {
  // ~1 ms of work every 30 ms at 206.4 MHz -> ~3.3% utilization.
  WorkloadHarness h;
  h.Add(std::make_unique<JavaPollWorkload>());
  h.Run(SimTime::Seconds(3));
  EXPECT_NEAR(h.MeanUtilization(10), 0.033, 0.015);
}

TEST(JavaPollWorkloadTest, PollsCostMoreAtLowClock) {
  // The same poll takes ~3.4x the cycles-time at 59 MHz: utilization rises.
  WorkloadHarness slow(0);
  slow.Add(std::make_unique<JavaPollWorkload>());
  slow.Run(SimTime::Seconds(3));
  EXPECT_GT(slow.MeanUtilization(10), 0.08);
  EXPECT_LT(slow.MeanUtilization(10), 0.20);
}

TEST(JavaPollWorkloadTest, RunsForever) {
  WorkloadHarness h;
  h.Add(std::make_unique<JavaPollWorkload>());
  h.Run(SimTime::Seconds(10));
  EXPECT_EQ(LiveTasks(*h.kernel), 1u);
}

TEST(JavaPollWorkloadTest, PeriodicityVisibleInUtilizationTrace) {
  // With a 30 ms period and 10 ms quanta, polls land in every third quantum
  // (the paper: "This periodic polling adds additional variation to the
  // clock setting algorithms").
  WorkloadHarness h;
  h.Add(std::make_unique<JavaPollWorkload>());
  h.Run(SimTime::Seconds(2));
  const TraceSeries* util = h.kernel->sink().Find("utilization");
  ASSERT_NE(util, nullptr);
  int busy_quanta = 0;
  for (std::size_t i = 5; i < util->size(); ++i) {
    if (util->points()[i].value > 0.05) {
      ++busy_quanta;
    }
  }
  // Roughly one busy quantum in three.
  const double fraction = static_cast<double>(busy_quanta) /
                          static_cast<double>(util->size() - 5);
  EXPECT_NEAR(fraction, 1.0 / 3.0, 0.12);
}

TEST(JavaPollWorkloadTest, CustomPeriodAndCost) {
  WorkloadHarness h;
  h.Add(std::make_unique<JavaPollWorkload>(SimTime::Millis(10), 5.0));
  h.Run(SimTime::Seconds(2));
  // 5 ms of work every 10 ms -> ~50%.
  EXPECT_NEAR(h.MeanUtilization(10), 0.5, 0.08);
}

}  // namespace
}  // namespace dcs
