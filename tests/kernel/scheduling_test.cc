// Scheduling edge cases and interaction tests beyond kernel_test.cc:
// wake-ups during stall gaps, policy churn mid-run, fairness with many
// tasks, jiffy-alignment properties across quantum configurations, and the
// yield cost.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"
#include "tests/support/fixtures.h"
#include "tests/support/synthetic_workloads.h"

namespace dcs {
namespace {

// Requests a given step once, at a chosen quantum index.
class OneShotStepPolicy final : public ClockPolicy {
 public:
  OneShotStepPolicy(std::uint64_t at_quantum, int step)
      : at_quantum_(at_quantum), step_(step) {}
  const char* Name() const override { return "oneshot"; }
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override {
    if (sample.quantum_index != at_quantum_) {
      return std::nullopt;
    }
    SpeedRequest request;
    request.step = step_;
    return request;
  }

 private:
  std::uint64_t at_quantum_;
  int step_;
};

TEST(SchedulingTest, WakeDuringStallGapIsDeferredNotLost) {
  Simulator sim;
  ItsyConfig itsy_config;
  itsy_config.clock_switch_stall = SimTime::Millis(5);  // long stall
  Itsy itsy(sim, itsy_config);
  Kernel kernel(sim, itsy);
  // Task sleeps until exactly 30.002 ms — inside the stall that the policy
  // triggers at the 30 ms tick.
  class SleepIntoStall final : public Workload {
   public:
    const char* Name() const override { return "sleeper"; }
    Action Next(const WorkloadContext& ctx) override {
      if (!slept_) {
        slept_ = true;
        return Action::SleepUntil(SimTime::Millis(30) + SimTime::Micros(2), false);
      }
      if (!spun_) {
        spun_ = true;
        return Action::SpinUntil(ctx.now + SimTime::Millis(20));
      }
      return Action::Exit();
    }
    bool spun_ = false;

   private:
    bool slept_ = false;
  };
  auto workload = std::make_unique<SleepIntoStall>();
  SleepIntoStall* raw = workload.get();
  OneShotStepPolicy policy(2, 0);  // change clock at the 30 ms tick
  kernel.InstallPolicy(&policy);
  kernel.AddTask(std::move(workload));
  kernel.Start();
  sim.RunUntil(SimTime::Millis(100));
  EXPECT_TRUE(raw->spun_);
  EXPECT_EQ(LiveTasks(kernel), 0u);
}

TEST(SchedulingTest, InstallPolicyMidRun) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
  kernel.Start();
  sim.RunUntil(SimTime::Millis(50));
  EXPECT_EQ(itsy.step(), 10);
  OneShotStepPolicy policy(7, 3);
  kernel.InstallPolicy(&policy);
  sim.RunUntil(SimTime::Millis(100));
  EXPECT_EQ(itsy.step(), 3);
}

TEST(SchedulingTest, FairnessAcrossFourSpinners) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  std::vector<Pid> pids;
  for (int i = 0; i < 4; ++i) {
    pids.push_back(kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0)));
  }
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(4));
  for (const Pid pid : pids) {
    EXPECT_NEAR(kernel.FindTask(pid)->cpu_time().ToSeconds(), 1.0, 0.05) << pid;
  }
}

TEST(SchedulingTest, MixedLoadFairShareForSpinners) {
  // One 30% task plus two full spinners: the light task gets what it asks
  // for; the spinners split the rest.
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  const Pid light = kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(0.3));
  const Pid heavy_a = kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
  const Pid heavy_b = kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(6));
  const double light_s = kernel.FindTask(light)->cpu_time().ToSeconds();
  const double heavy_a_s = kernel.FindTask(heavy_a)->cpu_time().ToSeconds();
  const double heavy_b_s = kernel.FindTask(heavy_b)->cpu_time().ToSeconds();
  // The spinners share equally.
  EXPECT_NEAR(heavy_a_s, heavy_b_s, 0.3);
  // Everyone together covers the wall clock.
  EXPECT_NEAR(light_s + heavy_a_s + heavy_b_s, 6.0, 0.1);
  // The light task cannot get more than its duty cycle asks for; under
  // contention its spin windows are time-based so it gets at most ~its
  // request, and the heavies dominate.
  EXPECT_LT(light_s, 2.0);
}

TEST(SchedulingTest, YieldCostChargesBusyTime) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  class YieldLoop final : public Workload {
   public:
    const char* Name() const override { return "yield_loop"; }
    Action Next(const WorkloadContext&) override { return Action::Yield(); }
  };
  kernel.AddTask(std::make_unique<YieldLoop>());
  kernel.AddTask(std::make_unique<YieldLoop>());
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(1));
  // ~500k yields/s at 2 us each: the whole second is busy switching.
  EXPECT_NEAR(kernel.total_busy().ToSeconds(), 1.0, 0.02);
}

TEST(SchedulingTest, DispatchCountsTrackQuanta) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  const Pid pid = kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(1));
  // A solo spinner is re-dispatched once per tick (plus the initial one).
  EXPECT_NEAR(static_cast<double>(kernel.FindTask(pid)->dispatches()), 101.0, 3.0);
}

TEST(SchedulingTest, CustomQuantumChangesTickRate) {
  Simulator sim;
  Itsy itsy(sim);
  KernelConfig config;
  config.quantum = SimTime::Millis(50);
  Kernel kernel(sim, itsy, config);
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(1));
  EXPECT_EQ(kernel.quanta_elapsed(), 20u);
}

TEST(SchedulingTest, JiffyAlignPropertyAcrossQuanta) {
  for (const int quantum_ms : {5, 10, 20}) {
    Simulator sim;
    Itsy itsy(sim);
    KernelConfig config;
    config.quantum = SimTime::Millis(quantum_ms);
    Kernel kernel(sim, itsy, config);
    kernel.Start();
    Rng rng(static_cast<std::uint64_t>(quantum_ms));
    for (int i = 0; i < 200; ++i) {
      const SimTime t = SimTime::Nanos(rng.UniformInt(0, 2000000000));
      const SimTime aligned = kernel.JiffyAlign(t);
      EXPECT_GE(aligned, t);
      EXPECT_LT(aligned - t, config.quantum);
      EXPECT_EQ(aligned.nanos() % config.quantum.nanos(), 0);
    }
  }
}

TEST(SchedulingTest, TickOverheadConfigurable) {
  Simulator sim;
  Itsy itsy(sim);
  KernelConfig config;
  config.tick_overhead = SimTime::Micros(100);  // 1% of the quantum
  Kernel kernel(sim, itsy, config);
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(1));
  EXPECT_NEAR(kernel.last_utilization(), 0.01, 1e-3);
}

TEST(SchedulingTest, ManyTasksAllMakeProgress) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  std::vector<ComputeOnceWorkload*> raw;
  for (int i = 0; i < 16; ++i) {
    auto workload = std::make_unique<ComputeOnceWorkload>(10e6);
    raw.push_back(workload.get());
    kernel.AddTask(std::move(workload));
  }
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(3));
  for (const ComputeOnceWorkload* w : raw) {
    EXPECT_TRUE(w->done());
  }
  EXPECT_EQ(LiveTasks(kernel), 0u);
}

TEST(SchedulingTest, LateAddedTaskGetsScheduledPromptly) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
  kernel.Start();
  sim.RunUntil(SimTime::Millis(500));
  auto workload = std::make_unique<ComputeOnceWorkload>(1e6);
  ComputeOnceWorkload* raw = workload.get();
  kernel.AddTask(std::move(workload));
  sim.RunUntil(SimTime::Millis(600));
  EXPECT_TRUE(raw->done());
}

}  // namespace
}  // namespace dcs
