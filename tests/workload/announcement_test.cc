// Verifies that every application workload announces its compute deadlines
// through Action::ComputeBy (the section 6 extension hook) and that the
// announcements are meaningful (future deadlines, matching the app's natural
// cadence).

#include <gtest/gtest.h>

#include "src/workload/apps.h"
#include "tests/support/fixtures.h"
#include "tests/support/lambda_events.h"
#include "tests/workload/harness.h"

namespace dcs {
namespace {

// Samples the kernel's deadline registry every quantum while the app runs.
struct RegistryProbe {
  int samples = 0;
  int samples_with_pending = 0;
  int future_deadlines = 0;
  int total_pending = 0;
};

RegistryProbe ProbeApp(const std::string& app, double seconds, int step = 10) {
  WorkloadHarness h(step, 3);
  AppBundle bundle = MakeApp(app, &h.deadlines, 3);
  for (auto& task : bundle.tasks) {
    h.Add(std::move(task));
  }
  RegistryProbe probe;
  // Poll the registry at 10 ms intervals via simulator events.
  const int polls = static_cast<int>(seconds * 100.0);
  testing::LambdaEvents events;
  for (int i = 1; i <= polls; ++i) {
    events.At(h.sim, SimTime::Millis(10 * i), [&probe, &h] {
      const auto pending = h.kernel->PendingDeadlines();
      ++probe.samples;
      if (!pending.empty()) {
        ++probe.samples_with_pending;
      }
      for (const auto& item : pending) {
        ++probe.total_pending;
        if (item.deadline > h.sim.Now()) {
          ++probe.future_deadlines;
        }
      }
    });
  }
  h.Run(SimTime::FromSecondsF(seconds + 0.5));
  return probe;
}

TEST(AnnouncementTest, MpegAnnouncesDuringMostQuanta) {
  const RegistryProbe probe = ProbeApp("mpeg", 10.0);
  // Decode occupies most of each frame period, and every decode announces.
  EXPECT_GT(probe.samples_with_pending, probe.samples / 2);
  EXPECT_GT(probe.total_pending, 100);
}

TEST(AnnouncementTest, MpegDeadlinesAreMostlyInTheFuture) {
  const RegistryProbe probe = ProbeApp("mpeg", 10.0);
  // At 206.4 MHz decode always finishes well before its display time, so
  // pending announcements should essentially never be overdue.
  EXPECT_GT(probe.future_deadlines, probe.total_pending * 9 / 10);
}

TEST(AnnouncementTest, InteractiveAppsAnnounceTheirBursts) {
  for (const char* app : {"web", "chess", "editor"}) {
    const RegistryProbe probe = ProbeApp(app, 30.0);
    EXPECT_GT(probe.total_pending, 0) << app;
  }
}

TEST(AnnouncementTest, RegistryEmptiesWhenAppsExit) {
  WorkloadHarness h(10, 3);
  MpegConfig config;
  config.duration = SimTime::Seconds(2);
  AppBundle bundle = MakeMpegApp(config, &h.deadlines, 3);
  for (auto& task : bundle.tasks) {
    h.Add(std::move(task));
  }
  h.Run(SimTime::Seconds(5));
  EXPECT_EQ(LiveTasks(*h.kernel), 0u);
  EXPECT_TRUE(h.kernel->PendingDeadlines().empty());
}

}  // namespace
}  // namespace dcs
