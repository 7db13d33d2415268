// Unit tests for the feedback (PID) governor: loop convergence, saturation
// escape, anti-windup after a stuck transition, the deadline observer, and
// the -vs rail behaviour.

#include "src/core/feedback_governor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/sim/simulator.h"
#include "tests/support/image_copy.h"

namespace dcs {
namespace {

// Drives the governor as the kernel would, modelling ideal hardware: every
// requested step is applied before the next quantum.  Returns the step in
// effect after `quanta` samples of constant utilization.
int StepAfter(FeedbackGovernor& governor, int start_step, double utilization, int quanta) {
  int step = start_step;
  for (int q = 0; q < quanta; ++q) {
    UtilizationSample sample;
    sample.utilization = utilization;
    sample.step = step;
    sample.quantum_index = static_cast<std::uint64_t>(q);
    if (const auto request = governor.OnQuantum(sample); request && request->step) {
      step = *request->step;
    }
  }
  return step;
}

TEST(FeedbackGovernorTest, NameEncodesGainsAndRail) {
  EXPECT_STREQ(FeedbackGovernor().Name(), "pid-0.50-0.40-0.05");
  FeedbackGovernorConfig config;
  config.kp = 1.0;
  config.ki = 0.25;
  config.kd = 0.0;
  config.voltage_scaling = true;
  EXPECT_STREQ(FeedbackGovernor(config).Name(), "pid-1.00-0.25-0.00-vs");
}

TEST(FeedbackGovernorTest, SaturationEscapeClimbsToTopStep) {
  // A pegged quantum censors demand; the multiplicative escape must still
  // walk the clock to the top in a handful of quanta.
  FeedbackGovernor governor;
  EXPECT_EQ(StepAfter(governor, ClockTable::MinStep(), 1.0, 12), ClockTable::MaxStep());
}

TEST(FeedbackGovernorTest, IdleDecaysToFloorStepAndGoesQuiet) {
  FeedbackGovernor governor;
  const int step = StepAfter(governor, ClockTable::MaxStep(), 0.0, 30);
  EXPECT_EQ(step, ClockTable::MinStep());
  // Pinned at the floor with zero demand: no further requests.
  UtilizationSample sample;
  sample.utilization = 0.0;
  sample.step = step;
  EXPECT_EQ(governor.OnQuantum(sample), std::nullopt);
}

TEST(FeedbackGovernorTest, SettlesNearTheUtilizationSetpoint) {
  // Constant demand of 40% of full speed.  The loop should settle on a step
  // where utilization = demand/speed lands near target_utilization (0.85),
  // quantized to the table: speed in [demand, demand/0.6].
  FeedbackGovernor governor;
  const double demand = 0.4;
  int step = ClockTable::MaxStep();
  for (int q = 0; q < 80; ++q) {
    const double speed =
        ClockTable::FrequencyMhz(step) / ClockTable::FrequencyMhz(ClockTable::MaxStep());
    UtilizationSample sample;
    sample.utilization = std::clamp(demand / speed, 0.0, 1.0);
    sample.step = step;
    if (const auto request = governor.OnQuantum(sample); request && request->step) {
      step = *request->step;
    }
  }
  const double final_speed =
      ClockTable::FrequencyMhz(step) / ClockTable::FrequencyMhz(ClockTable::MaxStep());
  EXPECT_GE(final_speed, demand);         // keeping up
  EXPECT_LE(final_speed, demand / 0.60);  // not wildly over-provisioned
}

TEST(FeedbackGovernorTest, NoWindupWhileTransitionsAreStuck) {
  // Hardware pinned at a middle step (as under transition-fault injection)
  // while the workload pegs: the command saturates but must not accumulate.
  // When demand vanishes the governor has to ask for a *lower* step within a
  // couple of quanta — a wound-up integrator would keep asking for the top.
  FeedbackGovernor governor;
  const int stuck = 5;
  UtilizationSample sample;
  sample.step = stuck;
  sample.utilization = 1.0;
  for (int q = 0; q < 40; ++q) {
    (void)governor.OnQuantum(sample);
  }
  EXPECT_LE(governor.last_command(), 1.0);
  sample.utilization = 0.0;
  bool asked_down = false;
  for (int q = 0; q < 3 && !asked_down; ++q) {
    const auto request = governor.OnQuantum(sample);
    asked_down = request && request->step && *request->step < stuck;
  }
  EXPECT_TRUE(asked_down);
}

// Reset: a fresh governor's snapshot image loaded into a used one.
TEST(FeedbackGovernorTest, ResetRestoresInitialState) {
  FeedbackGovernor governor;
  (void)StepAfter(governor, ClockTable::MaxStep(), 0.0, 10);
  EXPECT_LT(governor.last_command(), 1.0);
  ASSERT_TRUE(testing::CopyThroughImage(FeedbackGovernor(), governor));
  EXPECT_DOUBLE_EQ(governor.last_command(), 1.0);
}

TEST(FeedbackGovernorTest, VoltageScalingTracksTheChosenStep) {
  FeedbackGovernorConfig config;
  config.voltage_scaling = true;
  FeedbackGovernor governor(config);
  // Idle at the top step on the high rail: the governor steps down and,
  // once the chosen step is rail-safe, requests the low rail.
  UtilizationSample sample;
  sample.step = ClockTable::MaxStep();
  sample.voltage = CoreVoltage::kHigh;
  bool asked_low = false;
  for (int q = 0; q < 30 && !asked_low; ++q) {
    if (const auto request = governor.OnQuantum(sample)) {
      if (request->step) {
        sample.step = *request->step;
      }
      if (request->voltage) {
        EXPECT_LE(sample.step, kMaxStepAtLowVoltage);
        EXPECT_EQ(*request->voltage, CoreVoltage::kLow);
        asked_low = true;
      }
    }
  }
  EXPECT_TRUE(asked_low);
}

// A workload announcing one compute action with a deadline, then exiting.
class AnnouncingWorkload final : public Workload {
 public:
  AnnouncingWorkload(double cycles, SimTime deadline) : cycles_(cycles), deadline_(deadline) {}
  const char* Name() const override { return "announcer"; }
  Action Next(const WorkloadContext& /*ctx*/) override {
    if (!started_) {
      started_ = true;
      return Action::ComputeBy(cycles_, deadline_);
    }
    return Action::Exit();
  }

 private:
  double cycles_;
  SimTime deadline_;
  bool started_ = false;
};

TEST(FeedbackGovernorTest, DeadlineObserverRaisesSpeedAboveUtilizationAlone) {
  // A mostly-idle quantum stream would let the loop sink toward the floor;
  // an announced deadline whose required density exceeds the current speed
  // must pull the command up even though utilization stays low.
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  // ~80 Mcycles due in 500 ms: needs well over half the top step's rate.
  kernel.AddTask(std::make_unique<AnnouncingWorkload>(80e6, SimTime::Millis(500)));
  FeedbackGovernor governor;
  kernel.InstallPolicy(&governor);
  kernel.Start();
  sim.RunUntil(SimTime::Millis(100));
  // The loop saw the pending deadline and commanded high speed.
  EXPECT_GT(governor.last_command(), 0.5);
  EXPECT_GE(itsy.cpu().step(),
            ClockTable::StepForAtLeastMhz(
                0.5 * ClockTable::FrequencyMhz(ClockTable::MaxStep())));
}

}  // namespace
}  // namespace dcs
