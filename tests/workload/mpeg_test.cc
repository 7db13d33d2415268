#include "src/workload/mpeg.h"

#include <gtest/gtest.h>

#include "tests/support/fixtures.h"
#include "tests/workload/harness.h"

namespace dcs {
namespace {

MpegConfig ShortClip(double seconds = 10.0) {
  MpegConfig config;
  config.duration = SimTime::FromSecondsF(seconds);
  return config;
}

TEST(MpegVideoTest, DecodesExpectedFrameCount) {
  WorkloadHarness h;
  auto video = std::make_unique<MpegVideoWorkload>(ShortClip(10.0), &h.deadlines);
  MpegVideoWorkload* raw = video.get();
  h.Add(std::move(video));
  h.Run(SimTime::Seconds(12));
  EXPECT_EQ(raw->frames_decoded(), 150);  // 15 fps * 10 s
  EXPECT_EQ(h.deadlines.Stats("video_frame").total, 150);
}

TEST(MpegVideoTest, NoMissesAtTopSpeed) {
  WorkloadHarness h;
  h.Add(std::make_unique<MpegVideoWorkload>(ShortClip(), &h.deadlines));
  h.Run(SimTime::Seconds(12));
  EXPECT_EQ(h.deadlines.Stats("video_frame").missed, 0);
}

TEST(MpegVideoTest, NoMissesAt132MHz) {
  // "Our measurements showed that the MPEG application can run at 132MHz
  // without dropping frames."
  WorkloadHarness h(5);
  h.Add(std::make_unique<MpegVideoWorkload>(ShortClip(20.0), &h.deadlines));
  h.Run(SimTime::Seconds(22));
  EXPECT_EQ(h.deadlines.Stats("video_frame").missed, 0);
}

TEST(MpegVideoTest, MissesBelow118MHz) {
  WorkloadHarness h(3);  // 103.2 MHz
  h.Add(std::make_unique<MpegVideoWorkload>(ShortClip(20.0), &h.deadlines));
  h.Run(SimTime::Seconds(25));
  EXPECT_GT(h.deadlines.Stats("video_frame").missed, 10);
}

TEST(MpegVideoTest, UtilizationHigherAtLowerClock) {
  WorkloadHarness fast(10);
  WorkloadHarness slow(5);
  fast.Add(std::make_unique<MpegVideoWorkload>(ShortClip(), nullptr));
  slow.Add(std::make_unique<MpegVideoWorkload>(ShortClip(), nullptr));
  fast.Run(SimTime::Seconds(10));
  slow.Run(SimTime::Seconds(10));
  EXPECT_GT(slow.MeanUtilization(10), fast.MeanUtilization(10) + 0.1);
}

TEST(MpegVideoTest, SpinSleepHeuristicKeepsQuantaBimodal) {
  // Per the paper, quanta are mostly either saturated (decode/spin) or idle
  // (sleep): at 206 MHz most quanta should be > 90% or < 10% busy.
  WorkloadHarness h;
  h.Add(std::make_unique<MpegVideoWorkload>(ShortClip(), nullptr));
  h.Run(SimTime::Seconds(10));
  const TraceSeries* util = h.kernel->sink().Find("utilization");
  ASSERT_NE(util, nullptr);
  int extreme = 0;
  int total = 0;
  for (std::size_t i = 5; i < util->size(); ++i) {
    const double u = util->points()[i].value;
    if (u > 0.9 || u < 0.1) {
      ++extreme;
    }
    ++total;
  }
  EXPECT_GT(static_cast<double>(extreme) / total, 0.6);
}

TEST(MpegVideoTest, WorksWithoutDeadlineMonitor) {
  WorkloadHarness h;
  h.Add(std::make_unique<MpegVideoWorkload>(ShortClip(2.0), nullptr));
  h.Run(SimTime::Seconds(4));
  EXPECT_EQ(LiveTasks(*h.kernel), 0u);
}

TEST(MpegAudioTest, RefillsOnSchedule) {
  WorkloadHarness h;
  h.Add(std::make_unique<MpegAudioWorkload>(ShortClip(10.0), &h.deadlines));
  h.Run(SimTime::Seconds(12));
  EXPECT_EQ(h.deadlines.Stats("audio").total, 100);  // one per 100 ms
  EXPECT_EQ(h.deadlines.Stats("audio").missed, 0);
}

TEST(MpegAudioTest, TogglesAudioPeripheral) {
  WorkloadHarness h;
  h.Add(std::make_unique<MpegAudioWorkload>(ShortClip(1.0), &h.deadlines));
  EXPECT_FALSE(h.itsy->peripherals().audio_on);
  h.Run(SimTime::Millis(500));
  EXPECT_TRUE(h.itsy->peripherals().audio_on);
  h.Run(SimTime::Seconds(2));
  EXPECT_FALSE(h.itsy->peripherals().audio_on);
}

TEST(MpegAppTest, VideoAndAudioTogetherMeetDeadlinesAt132) {
  WorkloadHarness h(5);
  const MpegConfig config = ShortClip(20.0);
  h.Add(std::make_unique<MpegVideoWorkload>(config, &h.deadlines));
  h.Add(std::make_unique<MpegAudioWorkload>(config, &h.deadlines));
  h.Run(SimTime::Seconds(23));
  EXPECT_EQ(h.deadlines.TotalMissed(), 0)
      << "video misses: " << h.deadlines.Stats("video_frame").missed
      << ", audio misses: " << h.deadlines.Stats("audio").missed;
}

TEST(MpegAppTest, SeedsVaryFrameCosts) {
  WorkloadHarness a(10, 1);
  WorkloadHarness b(10, 99);
  a.Add(std::make_unique<MpegVideoWorkload>(ShortClip(5.0), nullptr));
  b.Add(std::make_unique<MpegVideoWorkload>(ShortClip(5.0), nullptr));
  a.Run(SimTime::Seconds(6));
  b.Run(SimTime::Seconds(6));
  EXPECT_NE(a.kernel->total_busy(), b.kernel->total_busy());
}

TEST(MpegVideoTest, IFramesCostMoreOnAverage) {
  // Indirect check through the config: the GOP factors put I well above B.
  const MpegConfig config;
  EXPECT_GT(config.i_factor, config.p_factor);
  EXPECT_GT(config.p_factor, config.b_factor);
  // Average of the IBBPBBPBB pattern stays ~1 so mean_decode_ms is the mean.
  const double avg =
      (config.i_factor + 2 * config.p_factor + 6 * config.b_factor) / 9.0;
  EXPECT_NEAR(avg, 1.0, 0.05);
}

}  // namespace
}  // namespace dcs
