#include "src/workload/web.h"

#include <gtest/gtest.h>

#include "tests/support/fixtures.h"
#include "tests/workload/harness.h"

namespace dcs {
namespace {

TEST(WebTraceTest, CoversAbout190Seconds) {
  const InputTrace trace = MakeWebBrowseTrace(1);
  EXPECT_GT(trace.Duration(), SimTime::Seconds(120));
  EXPECT_LT(trace.Duration(), SimTime::Seconds(200));
}

TEST(WebTraceTest, ContainsLoadsAndScrolls) {
  const InputTrace trace = MakeWebBrowseTrace(2);
  int loads = 0;
  int scrolls = 0;
  for (const InputEvent& event : trace.events()) {
    if (event.kind == "load") {
      ++loads;
    } else if (event.kind == "scroll") {
      ++scrolls;
    }
  }
  EXPECT_EQ(loads, 3);  // article, menu, TN-56
  EXPECT_GE(scrolls, 12);
}

TEST(WebTraceTest, SeedChangesTiming) {
  const InputTrace a = MakeWebBrowseTrace(1);
  const InputTrace b = MakeWebBrowseTrace(2);
  ASSERT_FALSE(a.empty());
  EXPECT_NE(a.events()[1].at, b.events()[1].at);
}

TEST(WebWorkloadTest, AllEventsHandledAtTopSpeed) {
  WorkloadHarness h;
  InputTrace trace = MakeWebBrowseTrace(3);
  const std::size_t events = trace.size();
  h.Add(std::make_unique<WebWorkload>(std::move(trace), WebConfig{}, &h.deadlines));
  h.Run(SimTime::Seconds(200));
  EXPECT_EQ(h.deadlines.Stats("interactive").total, static_cast<std::int64_t>(events));
  EXPECT_EQ(h.deadlines.Stats("interactive").missed, 0);
  EXPECT_EQ(LiveTasks(*h.kernel), 0u);
}

TEST(WebWorkloadTest, MeetsDeadlinesAt132MHz) {
  WorkloadHarness h(5);
  h.Add(std::make_unique<WebWorkload>(MakeWebBrowseTrace(3), WebConfig{}, &h.deadlines));
  h.Run(SimTime::Seconds(200));
  EXPECT_EQ(h.deadlines.Stats("interactive").missed, 0);
}

TEST(WebWorkloadTest, MissesDeadlinesAt59MHz) {
  WorkloadHarness h(0);
  h.Add(std::make_unique<WebWorkload>(MakeWebBrowseTrace(3), WebConfig{}, &h.deadlines));
  h.Run(SimTime::Seconds(220));
  EXPECT_GT(h.deadlines.Stats("interactive").missed, 5);
}

TEST(WebWorkloadTest, MostlyIdleWorkload) {
  // Figure 3(b): web browsing is dominated by reading time.
  WorkloadHarness h;
  h.Add(std::make_unique<WebWorkload>(MakeWebBrowseTrace(3), WebConfig{}, nullptr));
  h.Run(SimTime::Seconds(200));
  EXPECT_LT(h.MeanUtilization(10), 0.15);
}

TEST(WebWorkloadTest, HeavyPagesCostMore) {
  // Run only the two big loads by constructing a custom trace.
  InputTrace light;
  light.Record(SimTime::Seconds(1), "load", 0.5);
  InputTrace heavy;
  heavy.Record(SimTime::Seconds(1), "load", 2.0);
  WorkloadHarness h1;
  WorkloadHarness h2;
  h1.Add(std::make_unique<WebWorkload>(std::move(light), WebConfig{}, nullptr));
  h2.Add(std::make_unique<WebWorkload>(std::move(heavy), WebConfig{}, nullptr));
  h1.Run(SimTime::Seconds(10));
  h2.Run(SimTime::Seconds(10));
  EXPECT_GT(h2.kernel->total_busy().ToSeconds(),
            2.5 * h1.kernel->total_busy().ToSeconds());
}

TEST(WebWorkloadTest, EmptyTraceExitsImmediately) {
  WorkloadHarness h;
  h.Add(std::make_unique<WebWorkload>(InputTrace{}, WebConfig{}, &h.deadlines));
  h.Run(SimTime::Seconds(1));
  EXPECT_EQ(LiveTasks(*h.kernel), 0u);
  EXPECT_EQ(h.deadlines.TotalEvents(), 0);
}

}  // namespace
}  // namespace dcs
