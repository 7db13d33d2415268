// Schedule replay: runs a pre-computed per-quantum speed schedule on the
// live system.
//
// This is the missing link between the trace-driven studies (Weiser, Govil)
// and the paper's empirical method: take the speed schedule an offline
// oracle chose for a *recorded* run, then replay it against a live run.  If
// the workload were perfectly repeatable the oracle schedule would be
// optimal; with real run-to-run jitter it under-provisions exactly where the
// oracle cut closest — quantifying why "the claims made by previous studies"
// were not "born out by experimentation".

#ifndef SRC_CORE_REPLAY_POLICY_H_
#define SRC_CORE_REPLAY_POLICY_H_

#include <string>
#include <vector>

#include "src/hw/clock_table.h"
#include "src/kernel/policy.h"

namespace dcs {

class ScheduleReplayPolicy final : public ClockPolicy {
 public:
  // `steps[i]` is the clock step to run during quantum i+1 (the first
  // decision happens at the end of quantum 0).  After the schedule runs
  // out, the policy holds the last step.
  explicit ScheduleReplayPolicy(std::vector<int> steps);

  const char* Name() const override { return name_.c_str(); }
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override;
  void Snapshot(SnapshotIo& io) override { io.Index(next_, steps_.size()); }

  std::size_t schedule_length() const { return steps_.size(); }

 private:
  std::vector<int> steps_;
  std::string name_;
  std::size_t next_ = 0;
};

// Converts an oracle's relative-speed schedule (fractions of full speed, as
// produced by RunOptOracle / RunFutureOracle) into clock steps: the slowest
// step at least as fast as each requested speed.
std::vector<int> StepsFromRelativeSpeeds(const std::vector<double>& speeds);

}  // namespace dcs

#endif  // SRC_CORE_REPLAY_POLICY_H_
