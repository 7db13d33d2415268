// SA-1100 processor core state: clock step, execution state and the PLL
// relock stall that accompanies every clock change.

#ifndef SRC_HW_CPU_H_
#define SRC_HW_CPU_H_

#include "src/hw/clock_table.h"
#include "src/hw/power_model.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

class Cpu {
 public:
  // Starts at the top step (206.4 MHz), napping (nothing scheduled yet).
  // `switch_stall` overrides the measured 200 us PLL relock time (ablation
  // studies model faster or slower clock-change hardware).
  explicit Cpu(int initial_step = ClockTable::MaxStep(),
               SimTime switch_stall = kClockSwitchStall);

  int step() const { return step_; }
  double frequency_mhz() const { return ClockTable::FrequencyMhz(step_); }
  ExecState state() const { return state_; }

  // Initiates a clock change to `new_step` (clamped).  The core cannot
  // execute instructions until the returned time (now + 200 us); the caller
  // is responsible for putting the core back into kBusy/kNap afterwards.
  // Changing to the current step is a no-op returning `now`.
  SimTime BeginClockChange(int new_step, SimTime now);
  // Same, but with an explicit relock stall (fault injection stretches it).
  SimTime BeginClockChange(int new_step, SimTime now, SimTime stall);

  // Locks the core out for `stall` without changing the clock step: a failed
  // transition still pays the PLL relock.  Counted in total_stall() but not
  // in clock_changes() (no transition happened).
  SimTime ForceStall(SimTime stall, SimTime now);

  SimTime switch_stall() const { return switch_stall_; }

  // True while a clock change is still relocking at `now`.
  bool Stalled(SimTime now) const { return now < stall_until_; }
  SimTime stall_until() const { return stall_until_; }

  // Transitions between busy and nap.  Must not be called mid-stall (the
  // kernel waits for stall_until()).
  void SetState(ExecState state) { state_ = state; }

  // Diagnostics for the overhead accounting in section 5.4.
  int clock_changes() const { return clock_changes_; }
  SimTime total_stall() const { return total_stall_; }

  // Device-snapshot support (src/sim/snapshot.h).  switch_stall_ is config,
  // not state — a restored Cpu keeps the value it was constructed with.
  void Snapshot(SnapshotIo& io) {
    io.As<std::uint32_t>(step_);
    if (!io.Check(step_ >= ClockTable::MinStep() && step_ <= ClockTable::MaxStep())) {
      step_ = ClockTable::MaxStep();
    }
    io.Enum(state_, ExecState::kStalled);
    io(stall_until_);
    io.As<std::uint32_t>(clock_changes_);
    io(total_stall_);
  }

 private:
  int step_;
  SimTime switch_stall_;
  ExecState state_ = ExecState::kNap;
  SimTime stall_until_;
  int clock_changes_ = 0;
  SimTime total_stall_;
};

}  // namespace dcs

#endif  // SRC_HW_CPU_H_
