// Deadline-informed voltage scheduling — the paper's section 6 future work.
//
// "Our immediate future work is to provide 'deadline' mechanisms in Linux.
// These deadlines are not precisely the same mechanism needed in a true
// real-time O/S — in a RTOS, the application does not care if the deadline
// is reached early, while energy scheduling would prefer for the deadline to
// be met as late as possible."
//
// Workloads announce compute work with Action::ComputeBy(cycles, deadline);
// the kernel exposes the outstanding announcements.  At every quantum this
// governor picks the *slowest* clock step under which all announced work
// still meets its deadline, using an EDF-style density test:
//
//     sum_i  (remaining_i / rate_i(step)) / slack_i   <=   density_cap
//
// where rate_i is the task's effective throughput at `step` (memory model
// included) and slack_i the time left until its deadline.  density_cap < 1
// reserves headroom for unannounced background work (the Kaffe poll loop,
// kernel overhead, other tasks).  With no outstanding announcements the
// clock drops to the floor.

#ifndef SRC_CORE_DEADLINE_GOVERNOR_H_
#define SRC_CORE_DEADLINE_GOVERNOR_H_

#include <string>

#include "src/hw/clock_table.h"
#include "src/kernel/policy.h"

namespace dcs {

class Kernel;

struct DeadlineGovernorConfig {
  // Maximum EDF density before a faster step is required (headroom for
  // unannounced work).
  double density_cap = 0.85;
  int min_step = ClockTable::MinStep();
  int max_step = ClockTable::MaxStep();
  // Drop the core rail to 1.23 V whenever the chosen step allows it.
  bool voltage_scaling = false;
};

class DeadlineGovernor final : public ClockPolicy {
 public:
  explicit DeadlineGovernor(const DeadlineGovernorConfig& config = {});

  const char* Name() const override { return name_.c_str(); }
  void OnInstall(Kernel& kernel) override { kernel_ = &kernel; }
  // Re-solves the density test from sample.step (the hardware's real step)
  // every quantum, so a transition stuck by fault injection is re-requested
  // rather than assumed; jittered/late quanta only shrink the slacks fed to
  // the test, which the min_slack floor keeps finite.
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override;
  // kernel_ is re-established by OnInstall on the restore target.
  void Snapshot(SnapshotIo& io) override { io.As<std::int64_t>(last_chosen_step_); }

  // The step the density test selected at the last quantum (diagnostics).
  int last_chosen_step() const { return last_chosen_step_; }

 private:
  DeadlineGovernorConfig config_;
  std::string name_;
  Kernel* kernel_ = nullptr;
  int last_chosen_step_ = 0;
};

}  // namespace dcs

#endif  // SRC_CORE_DEADLINE_GOVERNOR_H_
