// Workload/experiment edge cases plus the brownout-cancellation regression:
//   * unknown app names and malformed fault specs throw cleanly;
//   * an empty AppBundle runs (the kernel idles for the duration);
//   * the DeadlineMonitor keeps consistent accounts under injected tick
//     jitter;
//   * a superseding rail request cancels the armed mid-settle brownout
//     (the stale event used to fire after the rail was back at 1.5 V);
//   * a permanently failing clock keeps the kernel retrying with bounded
//     backoff, never wedging or violating invariants;
//   * the invariant checker fires on a clock moved back, stores a bounded
//     number of tagged messages and counts every violation.

#include <stdexcept>

#include <gtest/gtest.h>

#include "src/exp/device_sim.h"
#include "src/exp/experiment.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/fault/invariants.h"
#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/sim/simulator.h"
#include "src/workload/apps.h"
#include "src/workload/deadline_monitor.h"

namespace dcs {
namespace {

TEST(FaultEdgesTest, UnknownAppThrowsThroughRunExperiment) {
  ExperimentConfig config;
  config.app = "quake";
  EXPECT_THROW(RunExperiment(config), std::invalid_argument);
}

TEST(FaultEdgesTest, MalformedFaultSpecThrows) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.duration = SimTime::Millis(100);
  config.faults = "tick-jitter=150%";
  EXPECT_THROW(RunExperiment(config), std::invalid_argument);
  config.faults = "gamma-ray=0.5";
  EXPECT_THROW(RunExperiment(config), std::invalid_argument);
}

TEST(FaultEdgesTest, EmptyBundleIdlesForTheDuration) {
  ExperimentConfig config;
  config.governor = "PAST-peg-peg-93-98";
  DeadlineMonitor deadlines;
  const ExperimentResult result = DeviceSim(config, AppBundle{}, &deadlines).Run();
  // bundle.duration is zero, so the run lasts the experiment's 2 s pad.
  EXPECT_EQ(result.duration, SimTime::Seconds(2));
  EXPECT_GT(result.quanta, 0u);
  EXPECT_GT(result.energy_joules, 0.0);  // idle still burns power
  EXPECT_EQ(result.deadline_events, 0);
  // Only scheduler bookkeeping runs: utilization is a sliver, not real work.
  EXPECT_LT(result.avg_utilization, 0.01);
}

TEST(FaultEdgesTest, EmptyBundleSurvivesAFaultStorm) {
  ExperimentConfig config;
  config.governor = "PAST-peg-peg-93-98-vs";
  config.faults = "storm=1,seed=5";
  DeadlineMonitor deadlines;
  const ExperimentResult result = DeviceSim(config, AppBundle{}, &deadlines).Run();
  EXPECT_TRUE(result.faults.enabled);
  EXPECT_GT(result.faults.injected_total, 0u);
  EXPECT_EQ(result.faults.invariant_violations, 0u) << result.faults.violations.front();
}

TEST(FaultEdgesTest, DeadlineMonitorStaysConsistentUnderTickJitter) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "deadline";
  config.seed = 3;
  config.duration = SimTime::Seconds(2);
  config.faults = "tick-jitter=1,tick-miss=0.1,seed=3";
  const ExperimentResult result = RunExperiment(config);
  EXPECT_GT(result.deadline_events, 0);
  EXPECT_LE(result.deadline_misses, result.deadline_events);
  EXPECT_GE(result.worst_lateness, SimTime::Zero());
  EXPECT_GT(result.faults.injected.at("tick-jitter"), 0u);
  EXPECT_EQ(result.faults.invariant_violations, 0u)
      << result.faults.violations.front();
}

// --- Brownout cancellation regression (the satellite bugfix) ---------------

// Arms a certain brownout by requesting the low rail at a 1.23 V-safe step.
void ArmBrownout(Simulator& sim, Itsy& itsy, FaultInjector& injector) {
  itsy.BindFaults(&injector);
  itsy.SetClockStep(5);
  ASSERT_TRUE(itsy.SetVoltage(CoreVoltage::kLow));
  ASSERT_TRUE(itsy.brownout_pending());
  (void)sim;
}

TEST(FaultEdgesTest, BrownoutFiresWhenNotSuperseded) {
  Simulator sim;
  Itsy itsy(sim);
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("brownout=1", &plan));
  FaultInjector injector(plan, 1);
  ArmBrownout(sim, itsy, injector);
  sim.RunUntil(SimTime::Millis(1));
  EXPECT_EQ(itsy.brownouts(), 1);
  EXPECT_FALSE(itsy.brownout_pending());
  EXPECT_EQ(itsy.step(), 5 - FaultInjector::kBrownoutStepDrop);
}

TEST(FaultEdgesTest, RailRaiseCancelsArmedBrownout) {
  Simulator sim;
  Itsy itsy(sim);
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("brownout=1", &plan));
  FaultInjector injector(plan, 1);
  ArmBrownout(sim, itsy, injector);
  // The policy changes its mind before the settle midpoint: back to 1.5 V.
  ASSERT_TRUE(itsy.SetVoltage(CoreVoltage::kHigh));
  EXPECT_FALSE(itsy.brownout_pending());
  sim.RunUntil(SimTime::Millis(1));
  // The stale event must not fire: no forced step-down ever lands.
  EXPECT_EQ(itsy.brownouts(), 0);
  EXPECT_EQ(itsy.step(), 5);
}

TEST(FaultEdgesTest, UnsafeStepRequestCancelsArmedBrownout) {
  Simulator sim;
  Itsy itsy(sim);
  FaultPlan plan;
  ASSERT_TRUE(FaultPlan::Parse("brownout=1", &plan));
  FaultInjector injector(plan, 1);
  ArmBrownout(sim, itsy, injector);
  // A step above kMaxStepAtLowVoltage raises the rail implicitly; that too
  // supersedes the in-flight down-settle.
  itsy.SetClockStep(9);
  EXPECT_FALSE(itsy.brownout_pending());
  sim.RunUntil(SimTime::Millis(1));
  EXPECT_EQ(itsy.brownouts(), 0);
  EXPECT_EQ(itsy.step(), 9);
}

// --- Bounded retry under a permanently failing clock ------------------------

TEST(FaultEdgesTest, PermanentClockFailureRetriesBoundedly) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "PAST-peg-peg-93-98";
  config.seed = 2;
  config.duration = SimTime::Seconds(2);
  config.faults = "clock-fail=1,seed=2";
  const ExperimentResult result = RunExperiment(config);
  // Every transition fails: the step never leaves the initial (top) step...
  EXPECT_EQ(result.clock_changes, 0);
  EXPECT_GT(result.step_residency[kNumClockSteps - 1], 0.99);
  // ...but the kernel keeps retrying with backoff instead of giving up or
  // wedging, and the invariants hold throughout.
  EXPECT_GT(result.faults.transition_retries, 0u);
  EXPECT_GT(result.faults.injected.at("clock-fail"), 0u);
  EXPECT_EQ(result.faults.invariant_violations, 0u)
      << result.faults.violations.front();
}

// The checker reads the system, not a staged call: it runs once, the clock
// is moved back under it (Simulator::RestoreClock on an empty queue), and
// the next check reports the backwards step.
TEST(FaultEdgesTest, InvariantCheckerFiresWhenTheClockRunsBackwards) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  InvariantChecker checker(sim, itsy, kernel);
  sim.RunUntil(SimTime::Seconds(2));
  checker.Check();
  EXPECT_EQ(checker.violation_count(), 0u);

  sim.RestoreClock(SimTime::Seconds(1), 0, 0);
  checker.Check();
  EXPECT_EQ(checker.checks(), 2u);
  ASSERT_EQ(checker.violation_count(), 1u);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations().front(),
            "[t=1.000000s] sim time went backwards (was 2000000000 ns, now 1000000000 ns)");

  // Every further step back is one more violation; only the first
  // kMaxStoredViolations messages are kept.
  const std::size_t total = InvariantChecker::kMaxStoredViolations + 1;
  for (std::size_t i = 1; i < total; ++i) {
    sim.RestoreClock(SimTime::Seconds(1) - SimTime::Millis(static_cast<std::int64_t>(i)), 0, 0);
    checker.Check();
  }
  EXPECT_EQ(checker.violation_count(), total);
  ASSERT_EQ(checker.violations().size(), InvariantChecker::kMaxStoredViolations);
  EXPECT_EQ(checker.violations().back(),
            "[t=0.969000s] sim time went backwards (was 970000000 ns, now 969000000 ns)");
}

}  // namespace
}  // namespace dcs
