// Process control block for the simulated Linux 2.0.30 kernel.

#ifndef SRC_KERNEL_TASK_H_
#define SRC_KERNEL_TASK_H_

#include <memory>
#include <string>

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
  void set_wake_event(EventId id) { wake_event_ = id; }

  // Absolute wake deadline recorded when the wake event is armed.  The event
  // id alone cannot reveal its fire time, so snapshots need it kept here.
  SimTime wake_at() const { return wake_at_; }
  void set_wake_at(SimTime at) { wake_at_ = at; }

  // --- Statistics ----------------------------------------------------------
  void AddCpuTime(SimTime t) { cpu_time_ += t; }
  SimTime cpu_time() const { return cpu_time_; }
  void CountDispatch() { ++dispatches_; }
  std::uint64_t dispatches() const { return dispatches_; }

  // --- Device-snapshot support (src/sim/snapshot.h) ------------------------
  // Everything but the wake *event* (the kernel re-arms it, because the
  // wake closure lives there).  remaining_cycles_ is restored verbatim, not
  // recomputed via set_action, so mid-compute progress survives.
  void SaveState(SnapshotWriter* w) const {
    rng_.SaveState(w);
    w->U8(static_cast<std::uint8_t>(state_));
    w->U8(static_cast<std::uint8_t>(action_.kind));
    w->F64(action_.base_cycles);
    w->Time(action_.until);
    w->Bool(action_.jiffy_rounded);
    w->Bool(action_.has_deadline);
    w->Time(action_.deadline);
    w->F64(remaining_cycles_);
    w->Time(wake_at_);
    w->Time(cpu_time_);
    w->U64(dispatches_);
    workload_->SaveState(w);
  }
  void LoadState(SnapshotReader* r, Kernel* kernel) {
    rng_.LoadState(r);
    state_ = r->Enum(TaskState::kExited);
    action_.kind = r->Enum(Action::Kind::kExit);
    action_.base_cycles = r->F64();
    action_.until = r->Time();
    action_.jiffy_rounded = r->Bool();
    action_.has_deadline = r->Bool();
    action_.deadline = r->Time();
    remaining_cycles_ = r->F64();
    wake_at_ = r->Time();
    cpu_time_ = r->Time();
    dispatches_ = r->U64();
    workload_->LoadState(r, kernel);
  }

 private:
  Pid pid_;
  std::unique_ptr<Workload> workload_;
  MemoryProfile profile_;
  Rng rng_;
  TaskState state_ = TaskState::kRunnable;
  Action action_{};
  double remaining_cycles_ = 0.0;
  EventId wake_event_ = kInvalidEventId;
  SimTime wake_at_;
  SimTime cpu_time_;
  std::uint64_t dispatches_ = 0;
};

}  // namespace dcs

#endif  // SRC_KERNEL_TASK_H_
