// Tests for the "av_sync" stream — the paper's literal failure symptom: "the
// MPEG audio and video became unsynchronized".

#include <gtest/gtest.h>

#include "src/exp/experiment.h"
#include "src/workload/apps.h"
#include "src/workload/mpeg.h"
#include "tests/workload/harness.h"

namespace dcs {
namespace {

void RunMpegBundle(WorkloadHarness& h, double seconds) {
  MpegConfig config;
  config.duration = SimTime::FromSecondsF(seconds);
  AppBundle bundle = MakeMpegApp(config, &h.deadlines, 5);
  for (auto& task : bundle.tasks) {
    h.Add(std::move(task));
  }
  h.Run(SimTime::FromSecondsF(seconds + 3.0));
}

TEST(AvSyncTest, StaysSynchronizedAt132MHz) {
  WorkloadHarness h(5);
  RunMpegBundle(h, 15.0);
  const auto stats = h.deadlines.Stats("av_sync");
  EXPECT_GT(stats.total, 200);
  EXPECT_EQ(stats.missed, 0);
}

TEST(AvSyncTest, StaysSynchronizedAtTopSpeed) {
  WorkloadHarness h(10);
  RunMpegBundle(h, 15.0);
  EXPECT_EQ(h.deadlines.Stats("av_sync").missed, 0);
}

TEST(AvSyncTest, DesynchronizesAtLowClock) {
  // At 59 MHz decode cannot keep up: video falls behind the audio clock and
  // the 100 ms sync tolerance is blown — the paper's observed failure.
  WorkloadHarness h(0);
  RunMpegBundle(h, 15.0);
  const auto stats = h.deadlines.Stats("av_sync");
  EXPECT_GT(stats.missed, 50);
  EXPECT_GT(stats.worst_lateness, SimTime::Seconds(1));
}

TEST(AvSyncTest, VideoTaskAloneReportsTheSyncStream) {
  // Audio plays in real time, so the video task reports av_sync by itself:
  // one event per frame it shows.
  WorkloadHarness h(10);
  MpegConfig config;
  config.duration = SimTime::Seconds(3);
  h.Add(std::make_unique<MpegVideoWorkload>(config, &h.deadlines));
  h.Run(SimTime::Seconds(5));
  EXPECT_GT(h.deadlines.Stats("video_frame").total, 0);
  EXPECT_EQ(h.deadlines.Stats("av_sync").total, h.deadlines.Stats("video_frame").total);
  EXPECT_EQ(h.deadlines.Stats("av_sync").missed, 0);
}

TEST(AvSyncTest, ExperimentExposesSyncStream) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "PAST-peg-peg-93-98";
  config.seed = 5;
  config.duration = SimTime::Seconds(10);
  const ExperimentResult result = RunExperiment(config);
  ASSERT_TRUE(result.streams.contains("av_sync"));
  EXPECT_EQ(result.streams.at("av_sync").missed, 0);
}

}  // namespace
}  // namespace dcs
