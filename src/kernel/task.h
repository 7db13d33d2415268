// Process control block for the simulated Linux 2.0.30 kernel.

#ifndef SRC_KERNEL_TASK_H_
#define SRC_KERNEL_TASK_H_

#include <memory>
#include <string>

#include "src/hw/memory_model.h"
#include "src/kernel/workload_api.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace dcs {

// Pid 0 is the idle task, as in Linux; real tasks get pids from 1.
using Pid = int;
inline constexpr Pid kIdlePid = 0;

enum class TaskState {
  kRunnable,  // on the run queue (or currently executing)
  kSleeping,  // blocked on a timer
  kExited,
};

// One schedulable entity.  Owned by the kernel.
class Task {
 public:
  Task(Pid pid, std::unique_ptr<Workload> workload, Rng rng);

  Pid pid() const { return pid_; }
  const char* name() const { return workload_->Name(); }
  TaskState state() const { return state_; }
  void set_state(TaskState s) { state_ = s; }

  Workload& workload() { return *workload_; }
  const MemoryProfile& profile() const { return profile_; }
  // The profile's EffectiveBaseHz per step, built once: the workload's
  // profile is fixed for the task's life.
  const MemoryModel::RateRow& rates() const { return rates_; }
  Rng& rng() { return rng_; }

  // --- Current action bookkeeping (managed by the kernel) -----------------
  const Action& action() const { return action_; }
  void set_action(const Action& a) {
    action_ = a;
    remaining_cycles_ = a.kind == Action::Kind::kCompute ? a.base_cycles : 0.0;
  }
  double remaining_cycles() const { return remaining_cycles_; }
  void ConsumeCycles(double cycles) {
    remaining_cycles_ -= cycles;
    if (remaining_cycles_ < 0.0) {
      remaining_cycles_ = 0.0;
    }
  }

  // Pending wake event while sleeping (so exits can cancel it).
  EventId wake_event() const { return wake_event_; }
  EventId& wake_event() { return wake_event_; }
  void set_wake_event(EventId id) { wake_event_ = id; }

  // --- Statistics ----------------------------------------------------------
  void AddCpuTime(SimTime t) { cpu_time_ += t; }
  SimTime cpu_time() const { return cpu_time_; }
  void CountDispatch() { ++dispatches_; }
  std::uint64_t dispatches() const { return dispatches_; }

  // --- Device-snapshot image (src/sim/snapshot.h) --------------------------
  // Everything but the wake *event* (the kernel re-arms it, because the
  // wake closure lives there).  remaining_cycles_ is restored verbatim, not
  // recomputed via set_action, so mid-compute progress survives.  The
  // workload goes through its SaveState/LoadState entry points, which a
  // wrapping workload may forward; `kernel` is passed on to LoadState.
  void Snapshot(SnapshotIo& io, Kernel* kernel) {
    rng_.Snapshot(io);
    io.Enum(state_, TaskState::kExited);
    io.Enum(action_.kind, Action::Kind::kExit);
    io(action_.base_cycles, action_.until, action_.jiffy_rounded, action_.has_deadline,
       action_.deadline, remaining_cycles_, cpu_time_, dispatches_);
    if (io.saving()) {
      workload_->SaveState(io.writer());
    } else {
      workload_->LoadState(io.reader(), kernel);
    }
  }

 private:
  Pid pid_;
  std::unique_ptr<Workload> workload_;
  MemoryProfile profile_;
  MemoryModel::RateRow rates_;
  Rng rng_;
  TaskState state_ = TaskState::kRunnable;
  Action action_{};
  double remaining_cycles_ = 0.0;
  EventId wake_event_ = kInvalidEventId;
  SimTime cpu_time_;
  std::uint64_t dispatches_ = 0;
};

}  // namespace dcs

#endif  // SRC_KERNEL_TASK_H_
