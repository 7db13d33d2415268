#include "src/workload/deadline_monitor.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/exp/device_sim.h"
#include "src/exp/experiment.h"
#include "src/sim/snapshot.h"
#include "src/workload/apps.h"

namespace dcs {
namespace {

std::string ImageOf(const DeadlineMonitor& monitor) {
  SnapshotWriter w;
  SaveSnapshot(monitor, &w);
  return std::string(w.data(), w.size());
}

// Loads `image` into `monitor` and returns whether the load succeeded.
bool Load(DeadlineMonitor& monitor, const std::string& image) {
  SnapshotWriter w;
  w.Bytes(image.data(), image.size());
  SnapshotReader r(w);
  LoadSnapshot(monitor, &r);
  return r.ok();
}

TEST(DeadlineMonitorTest, StartsEmpty) {
  DeadlineMonitor monitor;
  EXPECT_EQ(monitor.TotalEvents(), 0);
  EXPECT_EQ(monitor.TotalMissed(), 0);
  EXPECT_FALSE(monitor.AnyMissed());
  EXPECT_TRUE(monitor.Streams().empty());
}

TEST(DeadlineMonitorTest, OnTimeEventIsNotAMiss) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream video = monitor.Intern("video");
  monitor.Report(video, SimTime::Millis(100), SimTime::Millis(90));
  EXPECT_EQ(monitor.TotalEvents(), 1);
  EXPECT_EQ(monitor.TotalMissed(), 0);
  EXPECT_EQ(monitor.Stats("video").worst_lateness, SimTime::Zero());
}

TEST(DeadlineMonitorTest, LateEventIsAMiss) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream video = monitor.Intern("video");
  monitor.Report(video, SimTime::Millis(100), SimTime::Millis(150));
  EXPECT_EQ(monitor.TotalMissed(), 1);
  EXPECT_EQ(monitor.Stats("video").worst_lateness, SimTime::Millis(50));
  EXPECT_TRUE(monitor.AnyMissed());
}

TEST(DeadlineMonitorTest, ToleranceAbsorbsSmallLateness) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream video = monitor.Intern("video");
  monitor.Report(video, SimTime::Millis(100), SimTime::Millis(120), SimTime::Millis(30));
  EXPECT_EQ(monitor.TotalMissed(), 0);
  // Miss counting and lateness share the deadline+tolerance threshold: a
  // tolerated event accumulates no lateness.
  EXPECT_EQ(monitor.Stats("video").worst_lateness, SimTime::Zero());
  EXPECT_EQ(monitor.Stats("video").total_lateness, SimTime::Zero());
}

TEST(DeadlineMonitorTest, LatenessMeasuredPastTolerance) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream video = monitor.Intern("video");
  monitor.Report(video, SimTime::Millis(100), SimTime::Millis(150), SimTime::Millis(30));
  EXPECT_EQ(monitor.TotalMissed(), 1);
  // 150ms completion vs the 130ms tolerated deadline: 20ms past threshold.
  EXPECT_EQ(monitor.Stats("video").worst_lateness, SimTime::Millis(20));
  EXPECT_EQ(monitor.Stats("video").total_lateness, SimTime::Millis(20));
}

TEST(DeadlineMonitorTest, OverrunTracksTheBareDeadline) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream video = monitor.Intern("video");
  // Tolerated event: no miss, no lateness, but a 20ms overrun past the bare
  // deadline — the margin-erosion signal.
  monitor.Report(video, SimTime::Millis(100), SimTime::Millis(120), SimTime::Millis(30));
  EXPECT_EQ(monitor.TotalMissed(), 0);
  EXPECT_EQ(monitor.Stats("video").worst_lateness, SimTime::Zero());
  EXPECT_EQ(monitor.Stats("video").worst_overrun, SimTime::Millis(20));
  // Early event leaves the overrun untouched.
  monitor.Report(video, SimTime::Millis(100), SimTime::Millis(80), SimTime::Millis(30));
  EXPECT_EQ(monitor.Stats("video").worst_overrun, SimTime::Millis(20));
  EXPECT_EQ(monitor.WorstOverrun(), SimTime::Millis(20));
}

TEST(DeadlineMonitorTest, ExactlyAtToleranceBoundaryIsNotAMiss) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream s = monitor.Intern("s");
  monitor.Report(s, SimTime::Millis(100), SimTime::Millis(130), SimTime::Millis(30));
  EXPECT_EQ(monitor.TotalMissed(), 0);
  monitor.Report(s, SimTime::Millis(100), SimTime::Millis(130) + SimTime::Nanos(1),
                 SimTime::Millis(30));
  EXPECT_EQ(monitor.TotalMissed(), 1);
}

TEST(DeadlineMonitorTest, StreamsTrackedSeparately) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream video = monitor.Intern("video");
  const DeadlineMonitor::Stream audio = monitor.Intern("audio");
  monitor.Report(video, SimTime::Millis(10), SimTime::Millis(20));
  monitor.Report(audio, SimTime::Millis(10), SimTime::Millis(5));
  EXPECT_EQ(monitor.Stats("video").missed, 1);
  EXPECT_EQ(monitor.Stats("audio").missed, 0);
  EXPECT_EQ(monitor.Streams().size(), 2u);
  EXPECT_EQ(monitor.TotalEvents(), 2);
}

TEST(DeadlineMonitorTest, MissRatePerStream) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream s = monitor.Intern("s");
  for (int i = 0; i < 8; ++i) {
    monitor.Report(s, SimTime::Millis(10), SimTime::Millis(i < 2 ? 20 : 5));
  }
  EXPECT_DOUBLE_EQ(monitor.Stats("s").MissRate(), 0.25);
}

TEST(DeadlineMonitorTest, WorstLatenessAcrossStreams) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream a = monitor.Intern("a");
  const DeadlineMonitor::Stream b = monitor.Intern("b");
  monitor.Report(a, SimTime::Millis(10), SimTime::Millis(14));
  monitor.Report(b, SimTime::Millis(10), SimTime::Millis(35));
  EXPECT_EQ(monitor.WorstLateness(), SimTime::Millis(25));
}

TEST(DeadlineMonitorTest, TotalLatenessAccumulates) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream s = monitor.Intern("s");
  monitor.Report(s, SimTime::Millis(10), SimTime::Millis(13));
  monitor.Report(s, SimTime::Millis(10), SimTime::Millis(17));
  monitor.Report(s, SimTime::Millis(10), SimTime::Millis(5));  // early: no lateness
  EXPECT_EQ(monitor.Stats("s").total_lateness, SimTime::Millis(10));
}

TEST(DeadlineMonitorTest, UnknownStreamHasZeroStats) {
  DeadlineMonitor monitor;
  const auto stats = monitor.Stats("nothing");
  EXPECT_EQ(stats.total, 0);
  EXPECT_EQ(stats.missed, 0);
  EXPECT_DOUBLE_EQ(stats.MissRate(), 0.0);
}

TEST(DeadlineMonitorTest, ReportRequestRecordsLatencyHistogram) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream rpc = monitor.Intern("rpc");
  // Arrival at 10ms, SLO 50ms, completion at 30ms: on time, 20ms latency.
  monitor.ReportRequest(rpc, SimTime::Millis(10), SimTime::Millis(50), SimTime::Millis(30));
  // Arrival at 100ms, completion at 180ms: 30ms past the SLO, 80ms latency.
  monitor.ReportRequest(rpc, SimTime::Millis(100), SimTime::Millis(50), SimTime::Millis(180));
  const auto stats = monitor.Stats("rpc");
  EXPECT_EQ(stats.total, 2);
  EXPECT_EQ(stats.missed, 1);
  EXPECT_EQ(stats.worst_lateness, SimTime::Millis(30));
  ASSERT_EQ(stats.latency_us.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.latency_us.min(), 20000.0);
  EXPECT_DOUBLE_EQ(stats.latency_us.max(), 80000.0);
  EXPECT_DOUBLE_EQ(stats.latency_us.mean(), 50000.0);
}

TEST(DeadlineMonitorTest, ReportRequestToleranceExtendsSlo) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream rpc = monitor.Intern("rpc");
  monitor.ReportRequest(rpc, SimTime::Zero(), SimTime::Millis(50), SimTime::Millis(60),
                        SimTime::Millis(15));
  EXPECT_EQ(monitor.TotalMissed(), 0);
  EXPECT_EQ(monitor.Stats("rpc").worst_lateness, SimTime::Zero());
}

TEST(DeadlineMonitorTest, BareReportLeavesLatencyHistogramEmpty) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream video = monitor.Intern("video");
  monitor.Report(video, SimTime::Millis(100), SimTime::Millis(90));
  EXPECT_EQ(monitor.Stats("video").latency_us.count(), 0u);
}

TEST(DeadlineMonitorTest, ClearResets) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream s = monitor.Intern("s");
  monitor.Report(s, SimTime::Millis(10), SimTime::Millis(20));
  monitor.Clear();
  EXPECT_EQ(monitor.TotalEvents(), 0);
  EXPECT_TRUE(monitor.Streams().empty());
}

TEST(DeadlineMonitorTest, RejectedOnlyStreamDegradesToZeroesNotNaN) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream bronze = monitor.Intern("bronze");
  monitor.ReportRejected(bronze);
  monitor.ReportRejected(bronze, /*shed=*/true);
  const auto stats = monitor.Stats("bronze");
  EXPECT_EQ(stats.total, 0);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.shed, 1);
  // Zero admitted requests: rates and percentiles degrade to 0, never NaN.
  EXPECT_EQ(stats.MissRate(), 0.0);
  EXPECT_EQ(stats.RejectRate(), 1.0);
  EXPECT_EQ(stats.latency_us.count(), 0u);
  EXPECT_EQ(stats.latency_us.ApproxQuantile(0.99), 0.0);
  // The stream is visible even though it never completed a request.
  EXPECT_EQ(monitor.Streams(), std::vector<std::string>{"bronze"});
  EXPECT_EQ(monitor.TotalRejected(), 2);
  EXPECT_EQ(monitor.TotalShed(), 1);
  EXPECT_EQ(monitor.TotalEvents(), 0);
}

TEST(DeadlineMonitorTest, EmptyStreamStatsAreAllZero) {
  DeadlineMonitor monitor;
  const auto stats = monitor.Stats("never-reported");
  EXPECT_EQ(stats.MissRate(), 0.0);
  EXPECT_EQ(stats.RejectRate(), 0.0);
  EXPECT_EQ(stats.latency_us.ApproxQuantile(0.5), 0.0);
}

// --- Interned stream handles -------------------------------------------

TEST(DeadlineMonitorTest, HandleStaysValidAcrossClear) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream video = monitor.Intern("video");
  const DeadlineMonitor::Stream audio = monitor.Intern("audio");
  monitor.Report(video, SimTime::Millis(10), SimTime::Millis(20));
  monitor.Report(audio, SimTime::Millis(10), SimTime::Millis(5));
  monitor.Clear();
  monitor.Report(video, SimTime::Millis(10), SimTime::Millis(5));
  EXPECT_EQ(monitor.Streams(), std::vector<std::string>{"video"});
  EXPECT_EQ(monitor.Stats("video").total, 1);
  EXPECT_EQ(monitor.Stats("video").missed, 0);
  EXPECT_EQ(monitor.Stats("audio").total, 0);
  EXPECT_EQ(monitor.TotalEvents(), 1);
  // Interning a name again returns the same stream.
  monitor.Report(monitor.Intern("video"), SimTime::Millis(10), SimTime::Millis(20));
  EXPECT_EQ(monitor.Stats("video").total, 2);
}

TEST(DeadlineMonitorTest, HandleStaysValidAcrossInPlaceLoad) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream video = monitor.Intern("video");
  const DeadlineMonitor::Stream audio = monitor.Intern("audio");
  monitor.Report(video, SimTime::Millis(10), SimTime::Millis(20));
  monitor.Report(audio, SimTime::Millis(10), SimTime::Millis(5));
  const std::string image = ImageOf(monitor);
  // Diverge, then rewind to the image: the same key set loads in place.
  monitor.Report(video, SimTime::Millis(10), SimTime::Millis(50));
  monitor.ReportRejected(audio);
  ASSERT_TRUE(Load(monitor, image));
  EXPECT_EQ(ImageOf(monitor), image);
  monitor.Report(audio, SimTime::Millis(10), SimTime::Millis(30));
  EXPECT_EQ(monitor.Stats("video").total, 1);
  EXPECT_EQ(monitor.Stats("video").worst_lateness, SimTime::Millis(10));
  EXPECT_EQ(monitor.Stats("audio").total, 2);
  EXPECT_EQ(monitor.Stats("audio").missed, 1);
  EXPECT_EQ(monitor.Stats("audio").rejected, 0);
  EXPECT_EQ(monitor.Streams(), (std::vector<std::string>{"audio", "video"}));
}

TEST(DeadlineMonitorTest, HandleStaysValidAcrossRebuildLoad) {
  DeadlineMonitor source;
  source.Report(source.Intern("video"), SimTime::Millis(10), SimTime::Millis(20));
  source.ReportRequest(source.Intern("rpc"), SimTime::Millis(0), SimTime::Millis(50),
                       SimTime::Millis(30));
  const std::string image = ImageOf(source);

  // A monitor with another key set rebuilds from the image; its own
  // handles keep naming their streams.
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream other = monitor.Intern("other");
  monitor.Report(other, SimTime::Millis(10), SimTime::Millis(90));
  ASSERT_TRUE(Load(monitor, image));
  EXPECT_EQ(ImageOf(monitor), image);
  EXPECT_EQ(monitor.Streams(), (std::vector<std::string>{"rpc", "video"}));
  EXPECT_EQ(monitor.TotalMissed(), 1);
  monitor.Report(other, SimTime::Millis(10), SimTime::Millis(5));
  EXPECT_EQ(monitor.Streams(), (std::vector<std::string>{"other", "rpc", "video"}));
  EXPECT_EQ(monitor.Stats("other").total, 1);
  EXPECT_EQ(monitor.Stats("other").missed, 0);

  // A fresh monitor interns the image's names as it loads; interning them
  // afterwards finds the loaded streams.
  DeadlineMonitor fresh;
  ASSERT_TRUE(Load(fresh, image));
  EXPECT_EQ(ImageOf(fresh), image);
  fresh.ReportRequest(fresh.Intern("rpc"), SimTime::Millis(0), SimTime::Millis(50),
                      SimTime::Millis(40));
  EXPECT_EQ(fresh.Stats("rpc").total, 2);
  EXPECT_EQ(fresh.Stats("rpc").latency_us.count(), 2u);
  EXPECT_EQ(fresh.Stats("video").missed, 1);
}

TEST(DeadlineMonitorTest, ImageNamesOutOfOrderFailToLoad) {
  DeadlineMonitor source;
  source.Report(source.Intern("a"), SimTime::Millis(10), SimTime::Millis(20));
  source.Report(source.Intern("b"), SimTime::Millis(10), SimTime::Millis(20));
  std::string image = ImageOf(source);
  // Rename "b" (its U64 length, then the byte) to "a": a repeated name
  // would load one stream twice.
  const std::size_t b = image.find(std::string("\x01\0\0\0\0\0\0\0b", 9));
  ASSERT_NE(b, std::string::npos);
  image[b + 8] = 'a';
  DeadlineMonitor monitor;
  EXPECT_FALSE(Load(monitor, image));
}

TEST(DeadlineMonitorTest, InternedButUnreportedStreamIsInvisible) {
  DeadlineMonitor monitor;
  const DeadlineMonitor::Stream ghost = monitor.Intern("ghost");
  const DeadlineMonitor::Stream video = monitor.Intern("video");
  monitor.Report(video, SimTime::Millis(100), SimTime::Millis(150));
  monitor.Report(video, SimTime::Millis(100), SimTime::Millis(130), SimTime::Millis(10));
  EXPECT_EQ(monitor.Streams(), std::vector<std::string>{"video"});
  EXPECT_EQ(monitor.TotalEvents(), 2);
  EXPECT_EQ(monitor.TotalMissed(), 2);
  EXPECT_EQ(monitor.TotalRejected(), 0);
  EXPECT_EQ(monitor.WorstLateness(), SimTime::Millis(50));
  EXPECT_EQ(monitor.WorstOverrun(), SimTime::Millis(50));
  EXPECT_EQ(monitor.Stats("ghost").total, 0);

  // The image is the one a monitor that never interned it saves.
  DeadlineMonitor plain;
  const DeadlineMonitor::Stream plain_video = plain.Intern("video");
  plain.Report(plain_video, SimTime::Millis(100), SimTime::Millis(150));
  plain.Report(plain_video, SimTime::Millis(100), SimTime::Millis(130), SimTime::Millis(10));
  EXPECT_EQ(ImageOf(monitor), ImageOf(plain));
  // A load keeps it out too, and its handle still reports afterwards.
  ASSERT_TRUE(Load(monitor, ImageOf(plain)));
  EXPECT_EQ(monitor.Streams(), std::vector<std::string>{"video"});
  monitor.ReportRejected(ghost, /*shed=*/true);
  EXPECT_EQ(monitor.Streams(), (std::vector<std::string>{"ghost", "video"}));
  EXPECT_EQ(monitor.TotalShed(), 1);
}

TEST(DeadlineMonitorTest, InternedButUnreportedStreamStaysOutOfTheResult) {
  ExperimentConfig config;
  config.governor = "fixed-206.4";
  config.duration = SimTime::Seconds(1);
  DeadlineMonitor monitor;
  monitor.Intern("ghost");
  AppBundle bundle = MakeMpegApp(&monitor, 1);
  const ExperimentResult result = DeviceSim(config, std::move(bundle), &monitor).Run();
  ASSERT_FALSE(result.streams.empty());
  EXPECT_EQ(result.streams.count("ghost"), 0u);
  std::vector<std::string> names;
  for (const auto& [name, stats] : result.streams) {
    names.push_back(name);
  }
  EXPECT_EQ(names, monitor.Streams());
  EXPECT_EQ(result.metrics.FindHistogram("latency_us.ghost"), nullptr);
}

}  // namespace
}  // namespace dcs
