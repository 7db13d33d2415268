// Randomised robustness suite: seeded random workloads (arbitrary action
// sequences, including adversarial ones) run under every governor family
// while global invariants are checked.  Anything that crashes, hangs, or
// breaks an invariant here is a kernel/substrate bug regardless of whether a
// "sensible" workload would ever do it.

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "src/core/governor_registry.h"
#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/sim/simulator.h"
#include "tests/support/fixtures.h"

namespace dcs {
namespace {

// Emits a random but seeded stream of actions, including edge cases:
// zero-cycle computes, sleeps into the past, spins of zero length, yields
// and occasional deadline announcements.
class RandomWorkload final : public Workload {
 public:
  RandomWorkload(int max_actions, MemoryProfile profile)
      : max_actions_(max_actions), profile_(profile) {}

  const char* Name() const override { return "fuzz"; }
  MemoryProfile Profile() const override { return profile_; }

  Action Next(const WorkloadContext& ctx) override {
    if (actions_emitted_++ >= max_actions_) {
      return Action::Exit();
    }
    Rng& rng = *ctx.rng;
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1:
      case 2: {
        const double cycles = rng.Uniform(0.0, 5e6);  // includes ~zero work
        if (rng.Bernoulli(0.3)) {
          // Announce with a deadline that may already be unmeetable.
          const SimTime deadline =
              ctx.now + SimTime::FromSecondsF(rng.Uniform(-0.01, 0.2));
          return Action::ComputeBy(cycles, deadline);
        }
        return Action::Compute(cycles);
      }
      case 3:
      case 4: {
        // Sleep, sometimes into the past.
        const double delta = rng.Uniform(-0.005, 0.05);
        return Action::SleepUntil(ctx.now + SimTime::FromSecondsF(delta),
                                  rng.Bernoulli(0.5));
      }
      case 5:
      case 6: {
        const double delta = rng.Uniform(0.0, 0.02);
        return Action::SpinUntil(ctx.now + SimTime::FromSecondsF(delta));
      }
      case 7:
      case 8:
        return Action::Yield();
      default:
        // A short think pause keeps exits rare but time moving.
        return Action::SleepUntil(ctx.now + SimTime::Millis(3), false);
    }
  }

 private:
  int max_actions_;
  MemoryProfile profile_;
  int actions_emitted_ = 0;
};

struct FuzzCase {
  std::uint64_t seed;
  std::string governor;
};

class FuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzTest, InvariantsHoldUnderRandomWorkloads) {
  const FuzzCase& fuzz = GetParam();
  Simulator sim;
  Itsy itsy(sim);
  KernelConfig kernel_config;
  kernel_config.rng_seed = fuzz.seed;
  Kernel kernel(sim, itsy, kernel_config);

  std::string error;
  GovernorHandle governor = MakeGovernorDispatch(fuzz.governor, &error);
  ASSERT_TRUE(governor.governor != nullptr || error.empty()) << error;
  if (governor.governor != nullptr) {
    kernel.InstallPolicy(governor.dispatch);
  }

  Rng shape_rng(fuzz.seed * 7919);
  const int tasks = static_cast<int>(shape_rng.UniformInt(1, 4));
  for (int i = 0; i < tasks; ++i) {
    const MemoryProfile profile{shape_rng.Uniform(0.0, 30.0), shape_rng.Uniform(0.0, 12.0)};
    kernel.AddTask(std::make_unique<RandomWorkload>(
        static_cast<int>(shape_rng.UniformInt(50, 400)), profile));
  }

  const SimTime horizon = SimTime::Seconds(5);
  kernel.Start();
  sim.RunUntil(horizon);

  // --- Invariants -----------------------------------------------------------
  // 1. Time is conserved: busy + idle covers the horizon.
  const double covered = kernel.total_busy().ToSeconds() + kernel.total_idle().ToSeconds();
  EXPECT_NEAR(covered, horizon.ToSeconds(), 0.03);

  // 2. Step residency partitions the horizon.
  double residency = 0.0;
  for (const SimTime& t : kernel.step_residency()) {
    residency += t.ToSeconds();
  }
  EXPECT_NEAR(residency, horizon.ToSeconds(), 0.03);

  // 3. Recorded utilization is a valid fraction each quantum.
  const TraceSeries* util = kernel.sink().Find("utilization");
  ASSERT_NE(util, nullptr);
  EXPECT_NEAR(static_cast<double>(util->size()), 500.0, 2.0);
  for (const TracePoint& p : util->points()) {
    EXPECT_GE(p.value, 0.0);
    EXPECT_LE(p.value, 1.0);
  }

  // 4. The power tape is time-ordered with non-negative power, and energy is
  //    additive across a split.
  const PowerTape& tape = itsy.tape();
  SimTime last_start = SimTime::Zero() - SimTime::Seconds(1);
  for (const PowerTape::Segment& segment : tape.segments()) {
    EXPECT_GT(segment.start, last_start);
    EXPECT_GE(segment.watts, 0.0);
    last_start = segment.start;
  }
  const double whole = tape.EnergyJoules(SimTime::Zero(), horizon);
  const double halves = tape.EnergyJoules(SimTime::Zero(), horizon / 2) +
                        tape.EnergyJoules(horizon / 2, horizon);
  EXPECT_NEAR(whole, halves, 1e-9);

  // 5. Stall bookkeeping matches the switch count.
  EXPECT_EQ(itsy.total_stall(), kClockSwitchStall * itsy.clock_changes());

  // 6. Voltage safety: the rail is never low while the clock is fast.
  EXPECT_TRUE(VoltageRegulator::StepAllowedAt(itsy.voltage(), itsy.step()));

  // 7. Per-task CPU time is non-negative and bounded by the horizon.
  for (Pid pid = 1; pid <= tasks; ++pid) {
    Task* task = kernel.FindTask(pid);
    ASSERT_NE(task, nullptr);
    EXPECT_GE(task->cpu_time().ToSeconds(), 0.0);
    EXPECT_LE(task->cpu_time().ToSeconds(), horizon.ToSeconds() + 0.01);
  }
}

std::vector<FuzzCase> MakeFuzzCases() {
  std::vector<FuzzCase> cases;
  const char* governors[] = {"none",
                             "PAST-peg-peg-93-98",
                             "AVG9-one-one-50-70",
                             "cycles4",
                             "satrate4",
                             "deadline",
                             "ondemand",
                             "schedutil",
                             "flat-75",
                             "CYCLE10-peg-peg-93-98"};
  std::uint64_t seed = 1;
  for (const char* governor : governors) {
    for (int i = 0; i < 3; ++i) {
      cases.push_back(FuzzCase{seed++, governor});
    }
  }
  return cases;
}

std::string FuzzCaseName(const ::testing::TestParamInfo<FuzzCase>& info) {
  std::string name = info.param.governor + "_seed" + std::to_string(info.param.seed);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzTest, ::testing::ValuesIn(MakeFuzzCases()),
                         FuzzCaseName);

// Two tasks that do nothing but yield to each other: simulated time must
// still advance (the yield cost prevents an instantaneous livelock).
class YieldLoopWorkload final : public Workload {
 public:
  const char* Name() const override { return "yield_loop"; }
  Action Next(const WorkloadContext&) override { return Action::Yield(); }
};

TEST(FuzzEdgeCases, MutualYieldLoopDoesNotLivelock) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  kernel.AddTask(std::make_unique<YieldLoopWorkload>());
  kernel.AddTask(std::make_unique<YieldLoopWorkload>());
  kernel.Start();
  sim.RunUntil(SimTime::Millis(100));
  EXPECT_EQ(sim.Now(), SimTime::Millis(100));
  // Both tasks alive, CPU fully busy with switch overhead.
  EXPECT_EQ(LiveTasks(kernel), 2u);
  EXPECT_GT(kernel.last_utilization(), 0.99);
}

TEST(FuzzEdgeCases, SoloYieldLoopIsBoundedByInstantActionGuard) {
  // A single yielding task has nothing to yield to; the kernel treats it as
  // an instantaneous action and the guard limits it.  (It would assert in a
  // debug build after 100k instant actions; in release the guard just keeps
  // the loop finite per quantum.)  We merely check a near-variant: yield
  // mixed with tiny sleeps cannot wedge the simulation.
  class MostlySleepWorkload final : public Workload {
   public:
    const char* Name() const override { return "yield_sleep"; }
    Action Next(const WorkloadContext& ctx) override {
      toggle_ = !toggle_;
      if (toggle_) {
        return Action::Yield();
      }
      return Action::SleepUntil(ctx.now + SimTime::Micros(100), false);
    }

   private:
    bool toggle_ = false;
  };
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  kernel.AddTask(std::make_unique<MostlySleepWorkload>());
  kernel.Start();
  sim.RunUntil(SimTime::Millis(50));
  EXPECT_EQ(sim.Now(), SimTime::Millis(50));
}

TEST(FuzzEdgeCases, BatteryRunsEmptyMidRunWithoutDisruption) {
  Simulator sim;
  ItsyConfig config;
  BatteryParams battery;
  battery.peukert_capacity = 0.00008;  // tiny battery: empties within seconds
  config.battery = battery;
  Itsy itsy(sim, config);
  Kernel kernel(sim, itsy);
  kernel.AddTask(std::make_unique<RandomWorkload>(200, MemoryProfile{10.0, 4.0}));
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(5));
  itsy.SyncBattery();
  ASSERT_NE(itsy.battery(), nullptr);
  EXPECT_TRUE(itsy.battery()->Empty());
  // The simulation itself kept running (the Itsy was on external power).
  EXPECT_EQ(sim.Now(), SimTime::Seconds(5));
}

TEST(FuzzEdgeCases, TinySchedLogNeverOverflows) {
  Simulator sim;
  Itsy itsy(sim);
  KernelConfig config;
  config.sched_log_capacity = 8;
  Kernel kernel(sim, itsy, config);
  kernel.AddTask(std::make_unique<RandomWorkload>(300, MemoryProfile{}));
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(3));
  EXPECT_LE(kernel.sched_log().Snapshot().size(), 8u);
  EXPECT_TRUE(kernel.sched_log().Wrapped());
}

}  // namespace
}  // namespace dcs
