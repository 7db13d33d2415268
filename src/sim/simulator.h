// The discrete-event simulator loop.
//
// Every timed step of the stack is an event: a call to a member of the
// component that armed it (EventFn).  Each event lives in a timer slot of its
// owner.  An owner registers its slots once, when it is built (AddTimer), and
// keeps at most one pending event in each; arming is a store into the slot
// and cancelling a clear.  These registrations are all there are:
//   * the kernel's tick, dispatch and completion (Kernel's constructor);
//   * one wake per task, as in the paper's Linux 2.0.30 kernel, where a
//     sleeping process waits on one timer of its own (Kernel::AddTask);
//   * Itsy's brownout settle (Itsy's constructor);
//   * DeviceSim's invariant sweep, only when a fault plan is active.
// Every arm takes the next number from one sequence counter, and the loop
// fires the earliest armed slot by (time, seq): events tied on time fire in
// the order they were armed, whichever slots they sit in.  Time only
// advances between events; handlers run at a single logical instant.
//
// The bound this relies on: a device has few slots.  With the perfbench apps
// it has 6 (three kernel slots, the brownout and two task wakes) for mpeg,
// web, chess and the editor, and 5 for the server; a fault plan adds one.
// No test adds more than 16 tasks.  Step scans every slot, so an event costs
// time linear in the slots: a workload with thousands of sleeping tasks would
// want a heap again.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

#include "src/sim/arena.h"
#include "src/sim/time.h"

namespace dcs {

// What an event does when it fires: fire(owner, aux).  Of<&C::Handler>
// builds the record for a member `void Handler()` or `void Handler(Arg)`,
// Arg an integer taken from `aux` (a sleeping task's pid).  Plain data, so a
// slot holds it as it is and the snapshot re-arm (src/sim/snapshot.h)
// rebuilds it from the live owner; the owner must outlive every event it
// arms, as a component's events do.
struct EventFn {
  void (*fire)(void* owner, std::int64_t aux);
  void* owner;
  std::int64_t aux;

  void operator()() const { fire(owner, aux); }

  template <auto Handler, typename C>
  static EventFn Of(C* owner, std::int64_t aux = 0) {
    return EventFn{&Call<Handler, C>, owner, aux};
  }

 private:
  template <auto Handler, typename C>
  static void Call(void* owner, std::int64_t aux) {
    C* self = static_cast<C*>(owner);
    if constexpr (std::is_invocable_v<decltype(Handler), C*>) {
      (self->*Handler)();
    } else {
      (self->*Handler)(aux);
    }
  }
};
static_assert(std::is_trivially_copyable_v<EventFn> && sizeof(EventFn) == 24);

// Thrown by RunExperiment when its run was cancelled through the cooperative
// token (see Simulator::BindCancel) — e.g. by the campaign watchdog killing
// a job that outran --job-timeout.  The simulator itself never throws: its
// loops just stop between events, and the harness turns that into this.
class CancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Simulator {
 public:
  // Heap-backed by default; an Arena-bound simulator keeps its slots in the
  // arena (see src/sim/arena.h).
  Simulator() = default;
  explicit Simulator(Arena* arena) : timers_(ArenaAllocator<Timer>(arena)) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.  Monotone non-decreasing.
  SimTime Now() const { return now_; }

  // Registers an empty timer slot and returns its index, which stays valid
  // for the simulator's life.  Owners call it once per slot, when they are
  // built; a task added mid-run registers its wake slot then.
  std::size_t AddTimer() {
    timers_.emplace_back();
    return timers_.size() - 1;
  }

  // Arms the empty `slot` to call `fn` at `at`.  A time in the past
  // (at < Now()) fires at Now(), as a hardware timer raises an already
  // expired deadline at once.
  void ArmTimer(std::size_t slot, SimTime at, EventFn fn) {
    Timer& timer = timers_[slot];
    assert(!timer.armed() && "ArmTimer() on an armed slot");
    timer = Timer{at < now_ ? now_ : at, next_seq_++, fn};
  }
  // Arms owner->Handler() (or owner->Handler(aux)): the form every component
  // arms its events in.
  template <auto Handler, typename C>
  void ArmTimer(std::size_t slot, SimTime at, C* owner, std::int64_t aux = 0) {
    ArmTimer(slot, at, EventFn::Of<Handler>(owner, aux));
  }

  // Clears `slot`.  Returns true, and counts a cancel, if it was armed.
  bool CancelTimer(std::size_t slot) {
    Timer& timer = timers_[slot];
    if (!timer.armed()) {
      return false;
    }
    timer = Timer{};
    ++events_cancelled_;
    return true;
  }

  bool TimerArmed(std::size_t slot) const { return timers_[slot].armed(); }

  // Runs events with time <= deadline; afterwards Now() == deadline unless
  // the run was cancelled.  Events scheduled exactly at the deadline do fire.
  void RunUntil(SimTime deadline);

  // Runs exactly one event, the earliest armed slot, if it is due by
  // `deadline`.  Returns false if none is.
  bool Step(SimTime deadline = SimTime::Max());

  // Binds a cooperative cancellation token (non-owning; null unbinds).  The
  // event loops check it between events: once another thread sets it, the
  // run exits after the current callback, time stops advancing, and
  // CancelRequested() stays true (cancellation is never consumed — a
  // cancelled simulation is over).  Unbound, the loops pay one null check
  // per event.
  void BindCancel(const std::atomic<bool>* token) { cancel_ = token; }
  bool CancelRequested() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  // Number of events executed / successfully cancelled since construction
  // (diagnostics; exported as sim.* metrics by the experiment harness).
  std::uint64_t events_executed() const { return events_executed_; }
  std::uint64_t events_cancelled() const { return events_cancelled_; }

  // Armed slots.
  std::size_t PendingEvents() const {
    std::size_t n = 0;
    for (const Timer& timer : timers_) {
      n += timer.armed() ? 1 : 0;
    }
    return n;
  }

  // --- Snapshot support (src/sim/snapshot.h) --------------------------------

  // Fire time and sequence number of an armed slot, read at save time, so no
  // owner keeps its own copy of when its events fire.
  SimTime TimerAt(std::size_t slot) const { return timers_[slot].at; }
  std::uint64_t TimerSeq(std::size_t slot) const { return timers_[slot].seq; }

  // Starts a load: clears every slot, whoever armed it (the registrations
  // stay), restarts the sequence counter, then sets the clock and the sim.*
  // counters to the image's.
  void RestoreClock(SimTime now, std::uint64_t executed, std::uint64_t cancelled) {
    for (Timer& timer : timers_) {
      timer = Timer{};
    }
    next_seq_ = 0;
    now_ = now;
    events_executed_ = executed;
    events_cancelled_ = cancelled;
  }

  // Re-arms `slot` with a saved event at its saved fire time and sequence
  // number, so it fires where it did in the saved run among events tied on
  // time, and raises the counter past `seq`: every later arm sorts behind
  // it.  Whatever the slot held is replaced.  A time before Now() fires at
  // Now(), as in ArmTimer().
  void RearmTimer(std::size_t slot, SimTime at, std::uint64_t seq, EventFn fn) {
    if (seq >= next_seq_) {
      next_seq_ = seq + 1;
    }
    timers_[slot] = Timer{at < now_ ? now_ : at, seq, fn};
  }

 private:
  struct Timer {
    // An empty slot sorts after every armed one, at the end of time and
    // under the largest seq, so the loop's scan needs no armed test.
    SimTime at = SimTime::Max();
    std::uint64_t seq = ~std::uint64_t{0};
    // A null fire pointer marks an empty slot.
    EventFn fn{};

    bool armed() const { return fn.fire != nullptr; }
  };

  // Every registered slot, by index.
  ArenaVector<Timer> timers_;
  std::uint64_t next_seq_ = 0;
  SimTime now_;
  const std::atomic<bool>* cancel_ = nullptr;
  std::uint64_t events_executed_ = 0;
  std::uint64_t events_cancelled_ = 0;
};

}  // namespace dcs

#endif  // SRC_SIM_SIMULATOR_H_
