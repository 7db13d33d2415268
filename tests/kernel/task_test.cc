#include "src/kernel/task.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/hw/itsy.h"
#include "src/hw/memory_model.h"
#include "src/kernel/kernel.h"
#include "src/workload/apps.h"
#include "src/workload/server.h"
#include "tests/support/fixtures.h"
#include "tests/support/synthetic_workloads.h"

namespace dcs {
namespace {

std::unique_ptr<Task> MakeTask(Pid pid = 1, std::size_t wake_timer = 0) {
  return std::make_unique<Task>(pid, std::make_unique<ComputeOnceWorkload>(1000.0), Rng(1),
                                wake_timer);
}

TEST(TaskTest, InitialState) {
  auto task = MakeTask(3, 7);
  EXPECT_EQ(task->pid(), 3);
  EXPECT_EQ(task->state(), TaskState::kRunnable);
  EXPECT_STREQ(task->name(), "compute_once");
  EXPECT_EQ(task->cpu_time(), SimTime::Zero());
  EXPECT_EQ(task->dispatches(), 0u);
  EXPECT_EQ(task->wake_timer(), 7u);
}

TEST(TaskTest, WakeSlotIsArmedExactlyWhileSleeping) {
  // Kernel::AddTask registers one timer slot per task.  It holds the task's
  // wake, at a time still to come, exactly while the task sleeps.
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  Task* a = kernel.FindTask(kernel.AddTask(std::make_unique<RectangleWaveWorkload>(1, 2)));
  Task* b = kernel.FindTask(kernel.AddTask(std::make_unique<RectangleWaveWorkload>(2, 1)));
  EXPECT_NE(a->wake_timer(), b->wake_timer());
  kernel.Start();
  int sleeping = 0;
  for (int ms = 1; ms <= 200; ++ms) {
    sim.RunUntil(SimTime::Millis(ms));
    for (const Task* task : {a, b}) {
      const bool asleep = task->state() == TaskState::kSleeping;
      ASSERT_EQ(sim.TimerArmed(task->wake_timer()), asleep) << task->pid() << " at " << ms;
      if (asleep) {
        ++sleeping;
        EXPECT_GT(sim.TimerAt(task->wake_timer()), sim.Now());
      }
    }
  }
  EXPECT_GT(sleeping, 0);
}

TEST(TaskTest, SetActionTracksRemainingCycles) {
  auto task = MakeTask();
  task->set_action(Action::Compute(5000.0));
  EXPECT_DOUBLE_EQ(task->remaining_cycles(), 5000.0);
  task->set_action(Action::Yield());
  EXPECT_DOUBLE_EQ(task->remaining_cycles(), 0.0);
}

TEST(TaskTest, ConsumeCyclesSaturatesAtZero) {
  auto task = MakeTask();
  task->set_action(Action::Compute(100.0));
  task->ConsumeCycles(40.0);
  EXPECT_DOUBLE_EQ(task->remaining_cycles(), 60.0);
  task->ConsumeCycles(100.0);
  EXPECT_DOUBLE_EQ(task->remaining_cycles(), 0.0);
}

TEST(TaskTest, CpuTimeAccumulates) {
  auto task = MakeTask();
  task->AddCpuTime(SimTime::Millis(3));
  task->AddCpuTime(SimTime::Millis(4));
  EXPECT_EQ(task->cpu_time(), SimTime::Millis(7));
}

TEST(TaskTest, StateTransitions) {
  auto task = MakeTask();
  task->set_state(TaskState::kSleeping);
  EXPECT_EQ(task->state(), TaskState::kSleeping);
  task->set_state(TaskState::kExited);
  EXPECT_EQ(task->state(), TaskState::kExited);
}

TEST(TaskTest, ProfileComesFromWorkload) {
  auto task = std::make_unique<Task>(
      1, std::make_unique<ComputeOnceWorkload>(1.0, MemoryProfile{12.0, 3.0}), Rng(1), 0);
  EXPECT_DOUBLE_EQ(task->profile().word_refs_per_kilocycle, 12.0);
  EXPECT_DOUBLE_EQ(task->profile().line_fills_per_kilocycle, 3.0);

  // The task's rate row is EffectiveBaseHz of its profile, bit for bit, for
  // every task the app factories build.  Governor configs carry their own
  // step bounds, so steps outside the table clamp as EffectiveBaseHz does.
  DeadlineMonitor monitor;
  std::vector<AppBundle> bundles;
  for (const std::string& app : AllAppNames()) {
    bundles.push_back(MakeApp(app, &monitor, 1));
  }
  ServerConfig server;
  server.profile = MemoryProfile{30.0, 12.0};
  bundles.push_back(MakeServerApp(server, &monitor, 1));
  std::vector<std::unique_ptr<Task>> tasks;
  tasks.push_back(std::move(task));
  for (AppBundle& bundle : bundles) {
    for (std::unique_ptr<Workload>& workload : bundle.tasks) {
      tasks.push_back(std::make_unique<Task>(2, std::move(workload), Rng(1), 0));
    }
  }
  ASSERT_GE(tasks.size(), 10u);
  for (const std::unique_ptr<Task>& t : tasks) {
    for (int step = -3; step < kNumClockSteps + 3; ++step) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(t->rates().Hz(step)),
                std::bit_cast<std::uint64_t>(MemoryModel::EffectiveBaseHz(step, t->profile())))
          << t->name() << " step " << step;
    }
  }
}

TEST(ActionTest, FactoriesSetFields) {
  const Action c = Action::Compute(42.0);
  EXPECT_EQ(c.kind, Action::Kind::kCompute);
  EXPECT_DOUBLE_EQ(c.base_cycles, 42.0);

  const Action s = Action::SleepUntil(SimTime::Millis(3), false);
  EXPECT_EQ(s.kind, Action::Kind::kSleepUntil);
  EXPECT_EQ(s.until, SimTime::Millis(3));
  EXPECT_FALSE(s.jiffy_rounded);

  const Action sp = Action::SpinUntil(SimTime::Millis(9));
  EXPECT_EQ(sp.kind, Action::Kind::kSpinUntil);
  EXPECT_EQ(sp.until, SimTime::Millis(9));

  EXPECT_EQ(Action::Yield().kind, Action::Kind::kYield);
  EXPECT_EQ(Action::Exit().kind, Action::Kind::kExit);
}

}  // namespace
}  // namespace dcs
