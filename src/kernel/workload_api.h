// The interface between the kernel and application workloads.
//
// A workload is a state machine that the kernel drives: whenever the task's
// previous action completes, the kernel asks the workload for the next one.
// Actions model what real Itsy applications do — compute for some number of
// cycles, sleep until a wall-clock time (with Linux 2.0.30 jiffy rounding),
// busy-wait in a spin loop (the MPEG player's sub-12 ms wait), yield, or
// exit.  Compute demand is expressed in *base cycles* plus a MemoryProfile;
// the memory model converts that to wall time at the current clock step, so
// the same workload automatically slows down non-linearly as the governor
// scales the clock (paper Figure 9).

#ifndef SRC_KERNEL_WORKLOAD_API_H_
#define SRC_KERNEL_WORKLOAD_API_H_

#include <cstdint>

#include "src/hw/memory_model.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

class Kernel;

// What a task does next.  Produced by Workload::Next().
struct Action {
  enum class Kind {
    kCompute,     // execute `base_cycles` of work (memory-profile scaled)
    kSleepUntil,  // block until `until` (jiffy-rounded unless disabled)
    kSpinUntil,   // busy-wait until `until` (counts as CPU-busy, burns power)
    kYield,       // go to the back of the run queue
    kExit,        // terminate the task
  };

  Kind kind = Kind::kExit;
  double base_cycles = 0.0;
  SimTime until;
  // Real usleep() on Linux 2.0.30 cannot wake between 100 Hz ticks; when
  // true the wake-up is rounded up to the next tick boundary.
  bool jiffy_rounded = true;
  // Optional deadline *announcement* for a compute action (the paper's
  // section 6 future work: "provide 'deadline' mechanisms in Linux").  An
  // announcement is advisory — oblivious policies ignore it; the
  // DeadlineGovernor uses it to stretch the work to finish "as late as
  // possible".
  bool has_deadline = false;
  SimTime deadline;

  static Action Compute(double cycles) {
    Action a;
    a.kind = Kind::kCompute;
    a.base_cycles = cycles;
    return a;
  }
  // Compute with an announced completion deadline.
  static Action ComputeBy(double cycles, SimTime deadline) {
    Action a = Compute(cycles);
    a.has_deadline = true;
    a.deadline = deadline;
    return a;
  }
  static Action SleepUntil(SimTime t, bool jiffy = true) {
    Action a;
    a.kind = Kind::kSleepUntil;
    a.until = t;
    a.jiffy_rounded = jiffy;
    return a;
  }
  static Action SpinUntil(SimTime t) {
    Action a;
    a.kind = Kind::kSpinUntil;
    a.until = t;
    return a;
  }
  static Action Yield() {
    Action a;
    a.kind = Kind::kYield;
    return a;
  }
  static Action Exit() { return Action{}; }
};

// Context handed to Workload::Next(); `now` is the completion time of the
// previous action.
struct WorkloadContext {
  SimTime now;
  Rng* rng = nullptr;
  Kernel* kernel = nullptr;
};

// Per-quantum snapshot of what the platform actually supplied, published by
// the kernel from the clock interrupt (after the policy has run) to a bound
// SupplyObserver.  This is the feedback signal the admission controller
// consumes: the step the governor chose, the ceiling the rail currently
// allows, and the brownout/battery distress state.  Everything here derives
// from simulated state, so observers stay byte-identical across sweep
// thread counts.
struct SupplySample {
  // Start of the quantum that just ended.
  SimTime at;
  // Busy fraction of that quantum, clamped to [0, 1].
  double utilization = 0.0;
  // Clock step in effect for the quantum now starting (post-policy).
  int step = 0;
  // Highest step the current core rail allows (drops to
  // kMaxStepAtLowVoltage while the regulator targets 1.23 V).
  int max_step = 0;
  // Cumulative brownout-forced step-downs so far.
  int brownouts = 0;
  // Battery depth of discharge in [0, 1]; 0 when no battery is configured.
  double battery_dod = 0.0;
};

// Consumer of per-quantum supply samples (see Kernel::BindSupplyObserver).
// The callback runs on the tick path and must not allocate.
class SupplyObserver {
 public:
  virtual ~SupplyObserver() = default;
  virtual void OnQuantum(const SupplySample& sample) = 0;
};

// A generative application model.  Implementations live in src/workload.
class Workload {
 public:
  virtual ~Workload() = default;

  // Task name for the scheduler log (e.g. "mpeg_video").
  virtual const char* Name() const = 0;

  // Returns the next action.  Called once at task start and then each time
  // the previous action completes.
  virtual Action Next(const WorkloadContext& ctx) = 0;

  // Memory behaviour of this task's compute phases.
  virtual MemoryProfile Profile() const { return {}; }

  // --- Device-snapshot image (src/sim/snapshot.h) --------------------------
  // The workload's mutable progress state (frame counters, phase machines,
  // queue contents), described once: the same Snapshot body saves and
  // loads.  Configuration and traces are rebuilt when the stack is
  // constructed and are not in the image.  The default covers stateless
  // workloads.
  virtual void Snapshot(SnapshotIo& io) { (void)io; }

  // The entry points the kernel calls.  Both run Snapshot; a workload that
  // wraps another forwards them.  `kernel` lets LoadState re-establish
  // kernel-side bindings on a fresh stack (the server re-registers its
  // admission controller as the supply observer); it may be null when no
  // re-binding is possible.
  virtual void SaveState(SnapshotWriter* w) const { SaveSnapshot(*this, w); }
  virtual void LoadState(SnapshotReader* r, Kernel* /*kernel*/) { LoadSnapshot(*this, r); }
};

}  // namespace dcs

#endif  // SRC_KERNEL_WORKLOAD_API_H_
