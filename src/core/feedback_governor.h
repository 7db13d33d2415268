// Feedback (PID) clock governor driven by utilization and deadline slack.
//
// The interval schedulers reproduced from the paper are open-loop: they map
// a utilization prediction straight to a speed and rediscover every quantum
// how wrong the prediction was.  This governor closes the loop in the style
// of energy-aware feedback scheduling (Xia et al., PAPERS.md): it regulates
// commanded relative speed with a discrete PID on the error between the
// speed the workload appears to need and the speed currently in effect.
//
// Required speed is the max of two observers:
//   * utilization path — demand d = u * s_actual (full-speed work rate seen
//     last quantum), required r_u = d / target_utilization.  A pegged
//     quantum (u ~ 1) censors demand — the classic interval-governor
//     ceiling — so r_u is boosted multiplicatively above the current speed
//     until utilization unpegs (saturation escape);
//   * deadline path — announced-work density at the top step from
//     Kernel::PendingDeadlines() (same slack arithmetic as the deadline
//     governor), divided by density_target.  Zero when nothing is announced.
//
// The PID runs in velocity form around the *hardware's actual* speed
//     sigma = s_actual + kp*(e - e1) + ki*e + kd*(e - 2*e1 + e2)
// so a transition stuck by fault injection re-enters the loop as error
// instead of compounding (self-correcting base), and the integral action
// lives in the accumulated speed itself.  Anti-windup is by clamping: while
// the command sits at a range limit and the error keeps pushing into it,
// the command is held at the limit (re-running the update there would let
// the kp/kd terms kick it off the floor each time the hardware catches up,
// a two-step limit cycle at idle).  The command is clamped
// to [min_step speed, 1] and mapped to the slowest table step at least that
// fast; -vs variants drop the rail whenever the chosen step allows it.

#ifndef SRC_CORE_FEEDBACK_GOVERNOR_H_
#define SRC_CORE_FEEDBACK_GOVERNOR_H_

#include <string>

#include "src/hw/clock_table.h"
#include "src/kernel/policy.h"

namespace dcs {

class Kernel;

struct FeedbackGovernorConfig {
  // PID gains on the speed error (dimensionless, per quantum).
  double kp = 0.5;
  double ki = 0.4;
  double kd = 0.05;
  // Utilization setpoint the loop regulates toward (headroom below 1.0
  // absorbs prediction error without pegging).
  double target_utilization = 0.85;
  // Slack-density level the deadline observer is allowed to fill.
  double density_target = 0.85;
  // Multiplicative speed escape applied while a quantum is pegged.
  double saturation_boost = 0.25;
  // Utilization at or above which the demand estimate is considered
  // censored and the escape kicks in.
  double saturation_threshold = 0.97;
  int min_step = ClockTable::MinStep();
  int max_step = ClockTable::MaxStep();
  // Drop the core rail to 1.23 V whenever the chosen step allows it.
  bool voltage_scaling = false;
};

class FeedbackGovernor final : public ClockPolicy {
 public:
  explicit FeedbackGovernor(const FeedbackGovernorConfig& config = {});

  const char* Name() const override { return name_.c_str(); }
  void OnInstall(Kernel& kernel) override { kernel_ = &kernel; }
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override;
  void Snapshot(SnapshotIo& io) override {
    io(error1_, error2_, last_command_, pinned_high_, pinned_low_);
  }

  // Last commanded relative speed, pre-quantization (diagnostics).
  double last_command() const { return last_command_; }

 private:
  // Required relative speed from announced deadlines (0 when none pending).
  double DeadlineSpeed(const UtilizationSample& sample) const;

  FeedbackGovernorConfig config_;
  std::string name_;
  Kernel* kernel_ = nullptr;
  double error1_ = 0.0;  // e_{t-1}
  double error2_ = 0.0;  // e_{t-2}
  double last_command_ = 1.0;
  bool pinned_high_ = false;
  bool pinned_low_ = false;
};

}  // namespace dcs

#endif  // SRC_CORE_FEEDBACK_GOVERNOR_H_
