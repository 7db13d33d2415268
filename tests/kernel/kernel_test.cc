#include "src/kernel/kernel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/hw/itsy.h"
#include "src/sim/simulator.h"
#include "src/sim/snapshot.h"
#include "src/workload/synthetic.h"
#include "tests/support/fixtures.h"
#include "tests/support/synthetic_workloads.h"

namespace dcs {
namespace {

// Records every utilization sample; optionally replays scripted requests.
class RecordingPolicy final : public ClockPolicy {
 public:
  const char* Name() const override { return "recording"; }

  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override {
    samples.push_back(sample);
    if (next_request.has_value()) {
      SpeedRequest r = *next_request;
      next_request.reset();
      return r;
    }
    return std::nullopt;
  }

  std::vector<UtilizationSample> samples;
  std::optional<SpeedRequest> next_request;
};

class KernelTest : public ::testing::Test {
 protected:
  Simulator sim;
  Itsy itsy{sim};
  Kernel kernel{sim, itsy};
};

TEST_F(KernelTest, IdleSystemNapsWithOnlyTickOverhead) {
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(1));
  EXPECT_EQ(itsy.exec_state(), ExecState::kNap);
  // Utilization floor = 6 us overhead per 10 ms quantum = 0.06%.
  EXPECT_NEAR(kernel.last_utilization(), 0.0006, 1e-4);
  EXPECT_EQ(kernel.quanta_elapsed(), 100u);
}

TEST_F(KernelTest, ConstantUtilizationIsAccounted) {
  kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(0.5));
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(2));
  const TraceSeries* util = kernel.sink().Find("utilization");
  ASSERT_NE(util, nullptr);
  // Skip the first few quanta (phase alignment), then expect ~50%.
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = 10; i < util->size(); ++i) {
    sum += util->points()[i].value;
    ++n;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.05);
}

TEST_F(KernelTest, FullySpinningTaskSaturatesUtilization) {
  kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
  kernel.Start();
  sim.RunUntil(SimTime::Millis(500));
  EXPECT_NEAR(kernel.last_utilization(), 1.0, 1e-6);
  EXPECT_EQ(itsy.exec_state(), ExecState::kBusy);
}

TEST_F(KernelTest, ComputeWorkCompletesAtExpectedWallTime) {
  // 206.4e6 base cycles of pure compute at 206.4 MHz = 1.0 s of CPU time.
  auto workload = std::make_unique<ComputeOnceWorkload>(206.4e6);
  ComputeOnceWorkload* raw = workload.get();
  kernel.AddTask(std::move(workload));
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(2));
  ASSERT_TRUE(raw->done());
  // Tick overhead stretches wall time by ~0.06%.
  const double seconds = raw->completed_at().ToSeconds();
  EXPECT_GT(seconds, 1.0);
  EXPECT_LT(seconds, 1.01);
}

TEST_F(KernelTest, WorkRunsSlowerAtLowClockStep) {
  ItsyConfig config;
  config.initial_step = 0;  // 59 MHz
  Simulator slow_sim;
  Itsy slow_itsy(slow_sim, config);
  Kernel slow_kernel(slow_sim, slow_itsy);
  auto workload = std::make_unique<ComputeOnceWorkload>(59.0e6);
  ComputeOnceWorkload* raw = workload.get();
  slow_kernel.AddTask(std::move(workload));
  slow_kernel.Start();
  slow_sim.RunUntil(SimTime::Seconds(3));
  ASSERT_TRUE(raw->done());
  // 59.0e6 nominal-MHz-cycles at 58.9824 MHz is just over 1 second.
  EXPECT_NEAR(raw->completed_at().ToSeconds(), 1.0, 0.01);
}

TEST_F(KernelTest, RoundRobinSharesCpuEqually) {
  const Pid a = kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
  const Pid b = kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(2));
  const SimTime ta = kernel.FindTask(a)->cpu_time();
  const SimTime tb = kernel.FindTask(b)->cpu_time();
  EXPECT_NEAR(ta.ToSeconds(), tb.ToSeconds(), 0.05);
  EXPECT_NEAR(ta.ToSeconds() + tb.ToSeconds(), 2.0, 0.05);
}

TEST_F(KernelTest, PolicyReceivesOneSamplePerQuantum) {
  RecordingPolicy policy;
  kernel.InstallPolicy(&policy);
  kernel.Start();
  sim.RunUntil(SimTime::Millis(100));
  ASSERT_EQ(policy.samples.size(), 10u);
  for (std::size_t i = 0; i < policy.samples.size(); ++i) {
    EXPECT_EQ(policy.samples[i].quantum_index, i);
    EXPECT_EQ(policy.samples[i].step, 10);
    EXPECT_EQ(policy.samples[i].voltage, CoreVoltage::kHigh);
    EXPECT_EQ(policy.samples[i].quantum_end - policy.samples[i].quantum_start,
              SimTime::Millis(10));
  }
}

TEST_F(KernelTest, PolicyStepRequestChangesClockAndRecordsSeries) {
  RecordingPolicy policy;
  SpeedRequest request;
  request.step = 0;
  policy.next_request = request;
  kernel.InstallPolicy(&policy);
  kernel.Start();
  sim.RunUntil(SimTime::Millis(50));
  EXPECT_EQ(itsy.step(), 0);
  EXPECT_EQ(itsy.clock_changes(), 1);
  EXPECT_EQ(itsy.total_stall(), SimTime::Micros(200));
  const TraceSeries* freq = kernel.sink().Find("freq_mhz");
  ASSERT_NE(freq, nullptr);
  // Initial point plus the change.
  ASSERT_EQ(freq->size(), 2u);
  EXPECT_NEAR(freq->points()[1].value, 59.0, 0.1);
}

TEST_F(KernelTest, UnsafeVoltageRequestRefused) {
  RecordingPolicy policy;
  SpeedRequest request;
  request.voltage = CoreVoltage::kLow;  // at 206.4 MHz: must be refused
  policy.next_request = request;
  kernel.InstallPolicy(&policy);
  kernel.Start();
  sim.RunUntil(SimTime::Millis(30));
  EXPECT_EQ(itsy.voltage(), CoreVoltage::kHigh);
}

TEST_F(KernelTest, StepAndVoltageRequestTogetherApplyInSafeOrder) {
  RecordingPolicy policy;
  SpeedRequest request;
  request.step = 5;
  request.voltage = CoreVoltage::kLow;
  policy.next_request = request;
  kernel.InstallPolicy(&policy);
  kernel.Start();
  sim.RunUntil(SimTime::Millis(30));
  EXPECT_EQ(itsy.step(), 5);
  EXPECT_EQ(itsy.voltage(), CoreVoltage::kLow);
}

TEST_F(KernelTest, JiffyAlignRoundsUpToTickBoundary) {
  kernel.Start();
  EXPECT_EQ(kernel.JiffyAlign(SimTime::Millis(3)), SimTime::Millis(10));
  EXPECT_EQ(kernel.JiffyAlign(SimTime::Millis(10)), SimTime::Millis(10));
  EXPECT_EQ(kernel.JiffyAlign(SimTime::Millis(10) + SimTime::Nanos(1)),
            SimTime::Millis(20));
  EXPECT_EQ(kernel.JiffyAlign(SimTime::Zero()), SimTime::Zero());
}

TEST_F(KernelTest, JiffyRoundedSleepWakesOnTickBoundary) {
  // A constant one-third load sleeps with jiffy=false, so its wakes fall
  // between ticks; the kernel still accounts each quantum's busy time.
  kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0 / 3.0));
  kernel.Start();
  sim.RunUntil(SimTime::Millis(200));
  // The task spins a third of every 10 ms quantum.
  const TraceSeries* util = kernel.sink().Find("utilization");
  ASSERT_NE(util, nullptr);
  double sum = 0.0;
  for (const TracePoint& p : util->points()) {
    sum += p.value;
  }
  EXPECT_NEAR(sum / static_cast<double>(util->size()), 1.0 / 3.0, 0.05);
}

TEST_F(KernelTest, SchedLogRecordsDispatches) {
  kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
  kernel.Start();
  sim.RunUntil(SimTime::Millis(100));
  const auto entries = kernel.sched_log().Snapshot();
  ASSERT_GE(entries.size(), 10u);
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.pid, 1);
    EXPECT_EQ(entry.clock_step, 10);
  }
}

TEST_F(KernelTest, IdleDispatchLogsPidZero) {
  kernel.Start();
  sim.RunUntil(SimTime::Millis(50));
  const auto entries = kernel.sched_log().Snapshot();
  ASSERT_FALSE(entries.empty());
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.pid, kIdlePid);
  }
}

TEST_F(KernelTest, AddTaskWhileIdleDispatchesImmediately) {
  kernel.Start();
  sim.RunUntil(SimTime::Millis(55));
  EXPECT_EQ(itsy.exec_state(), ExecState::kNap);
  kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
  EXPECT_EQ(itsy.exec_state(), ExecState::kBusy);
}

TEST_F(KernelTest, ExitedTaskFreesCpu) {
  auto workload = std::make_unique<ComputeOnceWorkload>(1e6);
  kernel.AddTask(std::move(workload));
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(1));
  EXPECT_EQ(LiveTasks(kernel), 0u);
  EXPECT_EQ(itsy.exec_state(), ExecState::kNap);
}

TEST_F(KernelTest, BusyPlusIdleCoversWallClock) {
  kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(0.3));
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(1));
  const double covered = kernel.total_busy().ToSeconds() + kernel.total_idle().ToSeconds();
  EXPECT_NEAR(covered, 1.0, 0.02);
}

TEST_F(KernelTest, StepResidencySumsToWallClock) {
  RecordingPolicy policy;
  SpeedRequest request;
  request.step = 3;
  policy.next_request = request;
  kernel.InstallPolicy(&policy);
  kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(0.7));
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(1));
  double total = 0.0;
  for (const SimTime& t : kernel.step_residency()) {
    total += t.ToSeconds();
  }
  EXPECT_NEAR(total, 1.0, 0.02);
  // Nearly all of it at step 3 after the first quantum.
  EXPECT_GT(kernel.step_residency()[3].ToSeconds(), 0.97);
}

TEST_F(KernelTest, MidComputePreemptionPreservesWork) {
  // Two tasks: one long compute, one spinner.  The compute still finishes
  // with the correct *CPU time* despite interleaving.
  auto workload = std::make_unique<ComputeOnceWorkload>(206.4e6 / 2);  // 0.5 s at top
  ComputeOnceWorkload* raw = workload.get();
  const Pid pid = kernel.AddTask(std::move(workload));
  kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(3));
  ASSERT_TRUE(raw->done());
  // Wall time roughly doubles (fair share), CPU time stays ~0.5 s.
  EXPECT_NEAR(kernel.FindTask(pid)->cpu_time().ToSeconds(), 0.5, 0.02);
  EXPECT_GT(raw->completed_at().ToSeconds(), 0.9);
}

TEST_F(KernelTest, ClockChangeMidComputeStretchesCompletion) {
  RecordingPolicy policy;
  kernel.InstallPolicy(&policy);
  auto workload = std::make_unique<ComputeOnceWorkload>(206.4e6);  // 1 s at top
  ComputeOnceWorkload* raw = workload.get();
  kernel.AddTask(std::move(workload));
  // Drop to 59 MHz at the first quantum boundary.
  SpeedRequest request;
  request.step = 0;
  policy.next_request = request;
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(5));
  ASSERT_TRUE(raw->done());
  // ~10 ms at full speed, the rest at 1/3.5 speed: expect ~3.47 s total.
  EXPECT_GT(raw->completed_at().ToSeconds(), 3.3);
  EXPECT_LT(raw->completed_at().ToSeconds(), 3.6);
}

TEST_F(KernelTest, PolicySeesSpinAsBusy) {
  RecordingPolicy policy;
  kernel.InstallPolicy(&policy);
  kernel.AddTask(std::make_unique<ConstantUtilizationWorkload>(1.0));
  kernel.Start();
  sim.RunUntil(SimTime::Millis(100));
  ASSERT_FALSE(policy.samples.empty());
  for (std::size_t i = 1; i < policy.samples.size(); ++i) {
    EXPECT_GT(policy.samples[i].utilization, 0.99);
  }
}

TEST_F(KernelTest, FindTaskUnknownPidIsNull) {
  EXPECT_EQ(kernel.FindTask(77), nullptr);
}

// Never lets simulated time advance: every action is zero work.
class ZeroWorkForeverWorkload final : public Workload {
 public:
  const char* Name() const override { return "zero_work_forever"; }
  Action Next(const WorkloadContext& /*ctx*/) override {
    ++calls;
    return Action::Compute(0.0);
  }
  std::uint64_t calls = 0;
};

TEST_F(KernelTest, EndlessInstantActionsFailTheRun) {
  // The spin guard must hold in optimized (NDEBUG) builds too: without it
  // this workload re-enters the bounded spin every quantum and the run
  // silently reaches its deadline.
  auto workload = std::make_unique<ZeroWorkForeverWorkload>();
  const ZeroWorkForeverWorkload* raw = workload.get();
  kernel.AddTask(std::move(workload));
  EXPECT_THROW(
      {
        kernel.Start();
        sim.RunUntil(SimTime::Millis(50));
      },
      std::runtime_error);
  // It gave up inside the first quantum's spin, not after 50 ms of them.
  EXPECT_LE(raw->calls, 100'000u);
}

// Busy for the first 4 ms of every 10 ms, asleep for the rest.  Its next
// action follows from the clock alone, so it keeps no state and its image
// is Workload::Snapshot's default: nothing.
class ClockedSpinner final : public Workload {
 public:
  const char* Name() const override { return "clocked_spinner"; }
  Action Next(const WorkloadContext& ctx) override {
    const SimTime into = ctx.now % SimTime::Millis(10);
    if (into < SimTime::Millis(4)) {
      return Action::SpinUntil(ctx.now - into + SimTime::Millis(4));
    }
    return Action::SleepUntil(ctx.now - into + SimTime::Millis(10), /*jiffy=*/false);
  }
};

// The kernel and the hardware under it, imaged as DeviceSim images them:
// the clock, then the Itsy, then the kernel.
struct Stack {
  Simulator sim;
  Itsy itsy{sim};
  Kernel kernel{sim, itsy};

  void Image(SnapshotIo& io) {
    SimTime now = sim.Now();
    std::uint64_t executed = sim.events_executed();
    std::uint64_t cancelled = sim.events_cancelled();
    io(now, executed, cancelled);
    if (io.loading()) {
      sim.RestoreClock(now, executed, cancelled);
    }
    itsy.Snapshot(io);
    kernel.Snapshot(io);
  }
};

TEST(KernelImageTest, StatelessTaskCarriesOnFromAnImage) {
  Stack original;
  original.kernel.AddTask(std::make_unique<ClockedSpinner>());
  original.kernel.Start();
  // Mid-sleep, with the task's wake and the next tick pending.
  original.sim.RunUntil(SimTime::Millis(255));
  SnapshotWriter image;
  {
    SnapshotIo save(&image, &original.sim);
    original.Image(save);
  }
  original.sim.RunUntil(SimTime::Millis(500));

  // Built and started as the original was; the load then replaces what
  // the start armed.
  Stack restored;
  restored.kernel.AddTask(std::make_unique<ClockedSpinner>());
  restored.kernel.Start();
  SnapshotReader r(image);
  {
    SnapshotIo load(&r, &restored.sim);
    restored.Image(load);
  }
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  restored.sim.RunUntil(SimTime::Millis(500));

  EXPECT_EQ(restored.kernel.quanta_elapsed(), original.kernel.quanta_elapsed());
  EXPECT_EQ(restored.sim.events_executed(), original.sim.events_executed());
  const TraceSeries* want = original.kernel.sink().Find("utilization");
  const TraceSeries* got = restored.kernel.sink().Find("utilization");
  ASSERT_NE(want, nullptr);
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->size(), want->size());
  for (std::size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ(got->points()[i].at, want->points()[i].at) << i;
    EXPECT_EQ(got->points()[i].value, want->points()[i].value) << i;
  }
  EXPECT_NEAR(want->points().back().value, 0.4, 0.01);
}

}  // namespace
}  // namespace dcs
