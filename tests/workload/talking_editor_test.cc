#include "src/workload/talking_editor.h"

#include <gtest/gtest.h>

#include "tests/support/fixtures.h"
#include "tests/workload/harness.h"

namespace dcs {
namespace {

TEST(TalkingEditorTraceTest, CoversAbout70Seconds) {
  const InputTrace trace = MakeTalkingEditorTrace(1);
  EXPECT_GT(trace.Duration(), SimTime::Seconds(40));
  EXPECT_LT(trace.Duration(), SimTime::Seconds(70));
}

TEST(TalkingEditorTraceTest, TwoSpeakPhases) {
  const InputTrace trace = MakeTalkingEditorTrace(1);
  int speaks = 0;
  int uis = 0;
  for (const InputEvent& event : trace.events()) {
    if (event.kind == "speak") {
      ++speaks;
    } else if (event.kind == "ui") {
      ++uis;
    }
  }
  EXPECT_EQ(speaks, 2);
  EXPECT_GE(uis, 6);
}

TEST(TalkingEditorTest, CompletesSessionAtTopSpeed) {
  WorkloadHarness h;
  h.Add(std::make_unique<TalkingEditorWorkload>(MakeTalkingEditorTrace(3),
                                                TalkingEditorConfig{}, &h.deadlines));
  h.Run(SimTime::Seconds(120));
  EXPECT_EQ(LiveTasks(*h.kernel), 0u);
  // 10 + 7 sentences reported on the speech stream.
  EXPECT_EQ(h.deadlines.Stats("speech").total, 17);
  EXPECT_EQ(h.deadlines.Stats("speech").missed, 0);
}

TEST(TalkingEditorTest, NoSpeechGapsAt132MHz) {
  WorkloadHarness h(5);
  h.Add(std::make_unique<TalkingEditorWorkload>(MakeTalkingEditorTrace(3),
                                                TalkingEditorConfig{}, &h.deadlines));
  h.Run(SimTime::Seconds(140));
  EXPECT_EQ(h.deadlines.Stats("speech").missed, 0);
}

TEST(TalkingEditorTest, SpeechGapsAt59MHz) {
  // Synthesis takes ~3.1 s per 2.8 s sentence at 59 MHz: underruns.
  WorkloadHarness h(0);
  h.Add(std::make_unique<TalkingEditorWorkload>(MakeTalkingEditorTrace(3),
                                                TalkingEditorConfig{}, &h.deadlines));
  h.Run(SimTime::Seconds(180));
  EXPECT_GT(h.deadlines.Stats("speech").missed, 3);
}

TEST(TalkingEditorTest, AudioOnDuringSpeech) {
  WorkloadHarness h;
  h.Add(std::make_unique<TalkingEditorWorkload>(MakeTalkingEditorTrace(3),
                                                TalkingEditorConfig{}, nullptr));
  // Before the first speak event: audio off.
  h.Run(SimTime::Seconds(2));
  EXPECT_FALSE(h.itsy->peripherals().audio_on);
  // Mid-way through the first reading phase: audio on.
  h.Run(SimTime::Seconds(18));
  EXPECT_TRUE(h.itsy->peripherals().audio_on);
  // Long after the session: audio off again.
  h.Run(SimTime::Seconds(120));
  EXPECT_FALSE(h.itsy->peripherals().audio_on);
}

TEST(TalkingEditorTest, BurstyThenLongComputePattern) {
  // Figure 3(d)/4(d): UI bursts early, long synthesis bursts later.
  WorkloadHarness h;
  h.Add(std::make_unique<TalkingEditorWorkload>(MakeTalkingEditorTrace(3),
                                                TalkingEditorConfig{}, nullptr));
  h.Run(SimTime::Seconds(110));
  const TraceSeries* util = h.kernel->sink().Find("utilization");
  ASSERT_NE(util, nullptr);
  // Utilization in the first 8 seconds (dialog phase) is low on average;
  // during the reading phase long saturated stretches appear.
  double early_mean = 0.0;
  int early_n = 0;
  int late_saturated = 0;
  for (const TracePoint& p : util->points()) {
    if (p.at < SimTime::Seconds(8)) {
      early_mean += p.value;
      ++early_n;
    } else if (p.value > 0.95) {
      ++late_saturated;
    }
  }
  early_mean /= early_n;
  EXPECT_LT(early_mean, 0.5);
  EXPECT_GT(late_saturated, 100);
}

}  // namespace
}  // namespace dcs
