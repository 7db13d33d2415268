// Verifies that every application workload announces its compute deadlines
// through Action::ComputeBy (the section 6 extension hook) and that the
// announcements are meaningful (future deadlines, matching the app's natural
// cadence).

#include <gtest/gtest.h>

#include "src/workload/apps.h"
#include "tests/support/fixtures.h"
#include "tests/workload/harness.h"

namespace dcs {
namespace {

// Samples the kernel's deadline registry every quantum while the app runs:
// one timer slot that re-arms itself 10 ms on, as the kernel's tick does.
struct RegistryProbe {
  Kernel* kernel;
  Simulator* sim;
  int polls_left;
  std::size_t slot = sim->AddTimer();
  int samples = 0;
  int samples_with_pending = 0;
  int future_deadlines = 0;
  int total_pending = 0;

  void Poll() {
    ++samples;
    const auto& pending = kernel->PendingDeadlines();
    if (!pending.empty()) {
      ++samples_with_pending;
    }
    for (const auto& item : pending) {
      ++total_pending;
      if (item.deadline > sim->Now()) {
        ++future_deadlines;
      }
    }
    if (--polls_left > 0) {
      sim->ArmTimer<&RegistryProbe::Poll>(slot, sim->Now() + SimTime::Millis(10), this);
    }
  }
};

RegistryProbe ProbeApp(const std::string& app, double seconds, int step = 10) {
  WorkloadHarness h(step, 3);
  AppBundle bundle = MakeApp(app, &h.deadlines, 3);
  for (auto& task : bundle.tasks) {
    h.Add(std::move(task));
  }
  RegistryProbe probe{h.kernel.get(), &h.sim, static_cast<int>(seconds * 100.0)};
  h.sim.ArmTimer<&RegistryProbe::Poll>(probe.slot, SimTime::Millis(10), &probe);
  h.Run(SimTime::FromSecondsF(seconds + 0.5));
  EXPECT_EQ(probe.samples, static_cast<int>(seconds * 100.0));
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
