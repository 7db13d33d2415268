#include "src/core/deadline_governor.h"

#include <gtest/gtest.h>

#include "src/exp/experiment.h"
#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/sim/simulator.h"
#include "tests/support/synthetic_workloads.h"

namespace dcs {
namespace {

// A workload announcing one compute action with a deadline, then exiting.
class AnnouncingWorkload final : public Workload {
 public:
  AnnouncingWorkload(double cycles, SimTime deadline, MemoryProfile profile = {})
      : cycles_(cycles), deadline_(deadline), profile_(profile) {}
  const char* Name() const override { return "announcer"; }
  MemoryProfile Profile() const override { return profile_; }
  Action Next(const WorkloadContext& ctx) override {
    if (!started_) {
      started_ = true;
      return Action::ComputeBy(cycles_, deadline_);
    }
    completed_at_ = ctx.now;
    return Action::Exit();
  }
  SimTime completed_at() const { return completed_at_; }

 private:
  double cycles_;
  SimTime deadline_;
  MemoryProfile profile_;
  bool started_ = false;
  SimTime completed_at_;
};

TEST(KernelDeadlineRegistryTest, AnnouncedWorkVisible) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  kernel.AddTask(std::make_unique<AnnouncingWorkload>(100e6, SimTime::Seconds(2)));
  kernel.Start();
  sim.RunUntil(SimTime::Millis(15));
  const auto pending = kernel.PendingDeadlines();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].deadline, SimTime::Seconds(2));
  EXPECT_GT(pending[0].remaining_cycles, 0.0);
  EXPECT_LT(pending[0].remaining_cycles, 100e6);  // some progress made
}

TEST(KernelDeadlineRegistryTest, UnannouncedComputeInvisible) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  kernel.AddTask(std::make_unique<ComputeOnceWorkload>(100e6));
  kernel.Start();
  sim.RunUntil(SimTime::Millis(15));
  EXPECT_TRUE(kernel.PendingDeadlines().empty());
}

TEST(KernelDeadlineRegistryTest, CompletedWorkDisappears) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  kernel.AddTask(std::make_unique<AnnouncingWorkload>(1e6, SimTime::Seconds(1)));
  kernel.Start();
  sim.RunUntil(SimTime::Millis(200));
  EXPECT_TRUE(kernel.PendingDeadlines().empty());
}

TEST(DeadlineGovernorTest, FloorsWithoutAnnouncements) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  DeadlineGovernor governor;
  kernel.InstallPolicy(&governor);
  kernel.Start();
  sim.RunUntil(SimTime::Millis(100));
  EXPECT_EQ(itsy.step(), 0);
}

TEST(DeadlineGovernorTest, PicksSlowestFeasibleStep) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  DeadlineGovernor governor;
  kernel.InstallPolicy(&governor);
  // 103.2e6 pure-compute cycles due in 1 s: needs ~103.2e6/0.85 = 121 MHz
  // initially (step 5); because the density cap makes it run slightly ahead
  // of schedule, the governor may relax one step as slack accrues — but it
  // must neither race at the top nor sit at the floor.
  kernel.AddTask(std::make_unique<AnnouncingWorkload>(103.2e6, SimTime::Seconds(1)));
  kernel.Start();
  sim.RunUntil(SimTime::Millis(50));
  EXPECT_EQ(itsy.step(), 5);  // the initial feasibility decision
  sim.RunUntil(SimTime::Millis(500));
  EXPECT_GE(itsy.step(), 3);
  EXPECT_LE(itsy.step(), 5);
}

TEST(DeadlineGovernorTest, OverdueWorkPegsToTop) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  DeadlineGovernor governor;
  kernel.InstallPolicy(&governor);
  // Far more work than any step can deliver by the deadline.
  kernel.AddTask(std::make_unique<AnnouncingWorkload>(500e6, SimTime::Millis(100)));
  kernel.Start();
  sim.RunUntil(SimTime::Millis(50));
  EXPECT_EQ(itsy.step(), 10);
}

TEST(DeadlineGovernorTest, AccountsForMemoryProfile) {
  // Same cycles and deadline, but a memory-heavy profile needs a faster step.
  Simulator sim_light;
  Itsy itsy_light(sim_light);
  Kernel kernel_light(sim_light, itsy_light);
  DeadlineGovernor gov_light;
  kernel_light.InstallPolicy(&gov_light);
  kernel_light.AddTask(std::make_unique<AnnouncingWorkload>(60e6, SimTime::Seconds(1)));
  kernel_light.Start();
  sim_light.RunUntil(SimTime::Millis(100));

  Simulator sim_heavy;
  Itsy itsy_heavy(sim_heavy);
  Kernel kernel_heavy(sim_heavy, itsy_heavy);
  DeadlineGovernor gov_heavy;
  kernel_heavy.InstallPolicy(&gov_heavy);
  kernel_heavy.AddTask(std::make_unique<AnnouncingWorkload>(
      60e6, SimTime::Seconds(1), MemoryProfile{25.0, 10.0}));
  kernel_heavy.Start();
  sim_heavy.RunUntil(SimTime::Millis(100));

  EXPECT_GT(itsy_heavy.step(), itsy_light.step());
}

TEST(DeadlineGovernorTest, MeetsAnnouncedDeadlineJustInTime) {
  // "energy scheduling would prefer for the deadline to be met as late as
  // possible": the work finishes before, but not far before, its deadline.
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  DeadlineGovernor governor;
  kernel.InstallPolicy(&governor);
  auto workload = std::make_unique<AnnouncingWorkload>(80e6, SimTime::Seconds(1));
  AnnouncingWorkload* raw = workload.get();
  kernel.AddTask(std::move(workload));
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(2));
  ASSERT_GT(raw->completed_at(), SimTime::Zero());
  EXPECT_LE(raw->completed_at(), SimTime::Seconds(1));
  EXPECT_GT(raw->completed_at(), SimTime::FromSecondsF(0.55));  // stretched, not raced
}

TEST(DeadlineGovernorTest, VoltageScalingFollowsChosenStep) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  DeadlineGovernorConfig config;
  config.voltage_scaling = true;
  DeadlineGovernor governor(config);
  kernel.InstallPolicy(&governor);
  kernel.Start();
  sim.RunUntil(SimTime::Millis(100));
  // Idle: floor step at the low rail.
  EXPECT_EQ(itsy.step(), 0);
  EXPECT_EQ(itsy.voltage(), CoreVoltage::kLow);
}

TEST(DeadlineGovernorTest, NameEncodesCap) {
  EXPECT_STREQ(DeadlineGovernor().Name(), "deadline-85");
  DeadlineGovernorConfig config;
  config.density_cap = 0.7;
  config.voltage_scaling = true;
  EXPECT_STREQ(DeadlineGovernor(config).Name(), "deadline-70-vs");
}

TEST(DeadlineGovernorTest, NoKernelInstalledIsInert) {
  DeadlineGovernor governor;
  UtilizationSample sample;
  sample.step = 5;
  EXPECT_FALSE(governor.OnQuantum(sample).has_value());
}

TEST(DeadlineGovernorIntegrationTest, BeatsObliviousBestOnMpeg) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "deadline";
  config.seed = 5;
  config.duration = SimTime::Seconds(30);
  const ExperimentResult informed = RunExperiment(config);
  config.governor = "PAST-peg-peg-93-98";
  const ExperimentResult oblivious = RunExperiment(config);
  EXPECT_EQ(informed.deadline_misses, 0);
  EXPECT_LT(informed.energy_joules, oblivious.energy_joules);
}

TEST(DeadlineGovernorIntegrationTest, MeetsEveryDeadlineOnEveryApp) {
  for (const char* app : {"mpeg", "web", "chess", "editor"}) {
    ExperimentConfig config;
    config.app = app;
    config.governor = "deadline-vs";
    config.seed = 5;
    const ExperimentResult result = RunExperiment(config);
    EXPECT_EQ(result.deadline_misses, 0) << app;
    EXPECT_GT(result.deadline_events, 0) << app;
  }
}

}  // namespace
}  // namespace dcs
