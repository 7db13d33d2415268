// Process control block for the simulated Linux 2.0.30 kernel.

#ifndef SRC_KERNEL_TASK_H_
#define SRC_KERNEL_TASK_H_

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>

#include "src/hw/memory_model.h"
#include "src/kernel/workload_api.h"
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
  // `wake_timer` is the simulator timer slot the kernel registered for the
  // task's wake.
  Task(Pid pid, std::unique_ptr<Workload> workload, Rng rng, std::size_t wake_timer);

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

  // The task's own timer slot (src/sim/simulator.h): armed with its wake
  // while it sleeps, empty otherwise.
  std::size_t wake_timer() const { return wake_timer_; }

  // --- Statistics ----------------------------------------------------------
  void AddCpuTime(SimTime t) { cpu_time_ += t; }
  SimTime cpu_time() const { return cpu_time_; }
  void CountDispatch() { ++dispatches_; }
  std::uint64_t dispatches() const { return dispatches_; }

  // --- Device-snapshot image (src/sim/snapshot.h) --------------------------
  // Everything but the wake slot (the kernel saves and re-arms it, because
  // the wake handler is the kernel's).  remaining_cycles_ is restored
  // verbatim, not recomputed via set_action, so mid-compute progress
  // survives.  A load fails unless the cycles are work the kernel can turn
  // into a wall time (CyclesFit).  The workload goes through its
  // SaveState/LoadState entry points, which a wrapping workload may forward;
  // `kernel` is passed on to LoadState.
  void Snapshot(SnapshotIo& io, Kernel* kernel) {
    rng_.Snapshot(io);
    io.Enum(state_, TaskState::kExited);
    io.Enum(action_.kind, Action::Kind::kExit);
    io(action_.base_cycles, action_.until, action_.jiffy_rounded, action_.has_deadline,
       action_.deadline, remaining_cycles_, cpu_time_, dispatches_);
    if (io.loading() && !io.Check(CyclesFit())) {
      action_.base_cycles = remaining_cycles_ = 0.0;
    }
    if (io.saving()) {
      workload_->SaveState(io.writer());
    } else {
      workload_->LoadState(io.reader(), kernel);
    }
  }

 private:
  // True if the cycles are finite, 0 <= remaining <= base, and the base
  // takes at most a quarter of SimTime's range at every step.  That leaves
  // room for a memory spike's stretch and for the clock when ArmCompletion
  // converts the work to a time.
  bool CyclesFit() const {
    constexpr double kMaxWallSeconds = SimTime::Max().ToSeconds() / 4;
    const double base = action_.base_cycles;
    if (!(std::isfinite(base) && remaining_cycles_ >= 0.0 && remaining_cycles_ <= base)) {
      return false;
    }
    for (int step = 0; step < kNumClockSteps; ++step) {
      if (!(base / rates_.Hz(step) <= kMaxWallSeconds)) {
        return false;
      }
    }
    return true;
  }

  Pid pid_;
  std::unique_ptr<Workload> workload_;
  MemoryProfile profile_;
  MemoryModel::RateRow rates_;
  Rng rng_;
  TaskState state_ = TaskState::kRunnable;
  Action action_{};
  double remaining_cycles_ = 0.0;
  std::size_t wake_timer_;
  SimTime cpu_time_;
  std::uint64_t dispatches_ = 0;
};

}  // namespace dcs

#endif  // SRC_KERNEL_TASK_H_
