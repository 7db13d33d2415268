#include "src/workload/chess.h"

#include <gtest/gtest.h>

#include "tests/support/fixtures.h"
#include "tests/workload/harness.h"

namespace dcs {
namespace {

TEST(ChessTraceTest, CoversAbout218Seconds) {
  const InputTrace trace = MakeChessGameTrace(1);
  EXPECT_GT(trace.Duration(), SimTime::Seconds(120));
  EXPECT_LT(trace.Duration(), SimTime::Seconds(218));
}

TEST(ChessTraceTest, BookMovesAreFastReplies) {
  const InputTrace trace = MakeChessGameTrace(1);
  ASSERT_GE(trace.size(), 6u);
  // Early moves have near-zero search budgets; later moves search seconds.
  EXPECT_LT(trace.events()[0].magnitude, 0.1);
  EXPECT_GT(trace.events()[5].magnitude, 1.0);
}

TEST(ChessWorkloadTest, CompletesGameAtTopSpeed) {
  WorkloadHarness h;
  InputTrace trace = MakeChessGameTrace(4);
  const std::size_t moves = trace.size();
  h.Add(std::make_unique<ChessWorkload>(std::move(trace), ChessConfig{}, &h.deadlines));
  h.Run(SimTime::Seconds(230));
  EXPECT_EQ(h.deadlines.Stats("interactive").total, static_cast<std::int64_t>(moves));
  EXPECT_EQ(LiveTasks(*h.kernel), 0u);
}

TEST(ChessWorkloadTest, SearchSaturatesCpu) {
  // Figure 4(c): "utilization reaches 100% when Crafty is planning moves".
  WorkloadHarness h;
  h.Add(std::make_unique<ChessWorkload>(MakeChessGameTrace(4), ChessConfig{}, nullptr));
  h.Run(SimTime::Seconds(230));
  const TraceSeries* util = h.kernel->sink().Find("utilization");
  ASSERT_NE(util, nullptr);
  int saturated = 0;
  for (const TracePoint& p : util->points()) {
    if (p.value > 0.99) {
      ++saturated;
    }
  }
  // Several seconds worth of saturated quanta (search budgets).
  EXPECT_GT(saturated, 300);
}

TEST(ChessWorkloadTest, SearchTimeIndependentOfClock) {
  // Crafty is time-budgeted: busy time is the same at 59 MHz as at 206 MHz.
  WorkloadHarness fast(10);
  WorkloadHarness slow(0);
  fast.Add(std::make_unique<ChessWorkload>(MakeChessGameTrace(4), ChessConfig{}, nullptr));
  slow.Add(std::make_unique<ChessWorkload>(MakeChessGameTrace(4), ChessConfig{}, nullptr));
  fast.Run(SimTime::Seconds(230));
  slow.Run(SimTime::Seconds(230));
  // Spin-dominated busy time: within ~15% (UI bursts do stretch).
  EXPECT_NEAR(slow.kernel->total_busy().ToSeconds(), fast.kernel->total_busy().ToSeconds(),
              0.15 * fast.kernel->total_busy().ToSeconds());
}

TEST(ChessWorkloadTest, InteractiveDeadlinesMetEvenAt59MHz) {
  // UI bursts are small; chess tolerates low clock speeds (the energy win
  // for slow clocks on this app is real — searches just explore less).
  WorkloadHarness h(0);
  h.Add(std::make_unique<ChessWorkload>(MakeChessGameTrace(4), ChessConfig{}, &h.deadlines));
  h.Run(SimTime::Seconds(240));
  EXPECT_EQ(h.deadlines.Stats("interactive").missed, 0);
}

TEST(ChessWorkloadTest, ThinkTimeIsIdle) {
  WorkloadHarness h;
  h.Add(std::make_unique<ChessWorkload>(MakeChessGameTrace(4), ChessConfig{}, nullptr));
  h.Run(SimTime::Seconds(230));
  // Overall duty cycle is well below 100%: user think time dominates.
  EXPECT_LT(h.MeanUtilization(10), 0.6);
  EXPECT_GT(h.MeanUtilization(10), 0.15);
}

}  // namespace
}  // namespace dcs
