#include "src/workload/apps.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "tests/support/fixtures.h"
#include "tests/workload/harness.h"

namespace dcs {
namespace {

TEST(AppsTest, AllAppNamesResolve) {
  DeadlineMonitor deadlines;
  for (const std::string& name : AllAppNames()) {
    const AppBundle bundle = MakeApp(name, &deadlines, 1);
    EXPECT_EQ(bundle.name, name);
    EXPECT_FALSE(bundle.tasks.empty()) << name;
    EXPECT_GT(bundle.duration, SimTime::Seconds(30)) << name;
  }
}

TEST(AppsTest, UnknownAppThrows) {
  DeadlineMonitor deadlines;
  EXPECT_THROW(MakeApp("doom", &deadlines, 1), std::invalid_argument);
  EXPECT_THROW(MakeApp("", &deadlines, 1), std::invalid_argument);
}

TEST(AppsTest, MpegHasVideoAndAudioTasks) {
  DeadlineMonitor deadlines;
  const AppBundle bundle = MakeMpegApp(&deadlines, 1);
  ASSERT_EQ(bundle.tasks.size(), 2u);
  EXPECT_STREQ(bundle.tasks[0]->Name(), "mpeg_video");
  EXPECT_STREQ(bundle.tasks[1]->Name(), "mpeg_audio");
  EXPECT_EQ(bundle.duration, SimTime::Seconds(60));
}

TEST(AppsTest, JavaAppsIncludePollingTask) {
  DeadlineMonitor deadlines;
  for (const char* name : {"web", "chess", "editor"}) {
    const AppBundle bundle = MakeApp(name, &deadlines, 1);
    bool has_poll = false;
    for (const auto& task : bundle.tasks) {
      has_poll |= std::string(task->Name()) == "java_poll";
    }
    EXPECT_TRUE(has_poll) << name;
  }
}

TEST(AppsTest, MpegRunsDirectlyOnLinuxWithoutJvm) {
  DeadlineMonitor deadlines;
  const AppBundle bundle = MakeMpegApp(&deadlines, 1);
  for (const auto& task : bundle.tasks) {
    EXPECT_STRNE(task->Name(), "java_poll");
  }
}

TEST(AppsTest, DurationsMatchPaperTraces) {
  DeadlineMonitor deadlines;
  // 60 s MPEG, ~190 s Web, ~218 s Chess, ~70 s TalkingEditor.
  EXPECT_EQ(MakeMpegApp(&deadlines, 1).duration, SimTime::Seconds(60));
  const SimTime web = MakeWebApp(&deadlines, 1).duration;
  EXPECT_GT(web, SimTime::Seconds(120));
  EXPECT_LT(web, SimTime::Seconds(210));
  const SimTime chess = MakeChessApp(&deadlines, 1).duration;
  EXPECT_GT(chess, SimTime::Seconds(140));
  EXPECT_LT(chess, SimTime::Seconds(230));
  const SimTime editor = MakeTalkingEditorApp(&deadlines, 1).duration;
  EXPECT_GT(editor, SimTime::Seconds(60));
  EXPECT_LT(editor, SimTime::Seconds(100));
}

TEST(AppsTest, EveryAppMeetsConstraintsAt132MHz) {
  // "Each application was able to run at 132MHz and still meet any user
  // interaction constraints."
  for (const std::string& name : AllAppNames()) {
    WorkloadHarness h(5, 7);
    AppBundle bundle = MakeApp(name, &h.deadlines, 7);
    const SimTime duration = bundle.duration;
    for (auto& task : bundle.tasks) {
      h.Add(std::move(task));
    }
    h.Run(duration + SimTime::Seconds(5));
    EXPECT_EQ(h.deadlines.TotalMissed(), 0) << name;
    EXPECT_GT(h.deadlines.TotalEvents(), 0) << name;
  }
}

}  // namespace
}  // namespace dcs
