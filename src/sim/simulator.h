// The discrete-event simulator loop.
//
// Every timed step of the stack (the kernel's tick, dispatch and completion,
// task wakes, the regulator's brownout settle, the invariant sweep) is an
// event scheduled here: a call to a member of the component that armed it
// (EventFn).  Events wait in one of two places.  The kernel's tick, dispatch
// and completion, of which it keeps at most one each and re-arms every
// quantum, sit in a fixed array of timer slots; every other event sits in
// the EventQueue.  Both take their sequence number from the queue's counter,
// and the loop fires whichever comes first by (time, seq), so events fire in
// the order one queue holding all of them would give, ties included.  Time
// only advances between events; handlers run at a single logical instant.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <array>
#include <atomic>
#include <cassert>
#include <stdexcept>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace dcs {

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
  // Heap-backed by default; an Arena-bound simulator routes the event
  // queue's slot and pending-event storage through the arena (see src/sim/arena.h).
  Simulator() = default;
  explicit Simulator(Arena* arena) : queue_(arena) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.  Monotone non-decreasing.
  SimTime Now() const { return now_; }

  // Schedules `fn` at absolute time `at`.  Scheduling in the past (at < Now())
  // fires the event at Now(); this mirrors hardware timers that raise an
  // already-expired deadline immediately.
  EventId At(SimTime at, EventFn fn);

  // Schedules owner->Handler() (or owner->Handler(aux)) at `at`: the form
  // every component arms its events in.
  template <auto Handler, typename C>
  EventId At(SimTime at, C* owner, std::int64_t aux = 0) {
    return At(at, EventFn::Of<Handler>(owner, aux));
  }

  // Cancels a pending event.  Returns true if it was still pending.
  bool Cancel(EventId id);

  // --- Timer slots ------------------------------------------------------------
  // A fixed array of slots beside the queue, one per event an owner keeps
  // at most one of and re-arms all the time (the kernel's tick, dispatch and
  // completion).  A slot holds (at, seq, fn), its seq taken from the queue's
  // counter, so a slot fires exactly where the same event would fire if it
  // were queued, ties included.  Arming is a store and cancelling a clear:
  // no slot pool, no sorted insert.
  static constexpr std::size_t kTimerSlots = 3;

  // Arms the empty `slot` to call `fn` at `at` (clamped to Now(), as in
  // At()).
  void ArmTimer(std::size_t slot, SimTime at, EventFn fn) {
    Timer& timer = timers_[slot];
    assert(!timer.armed() && "ArmTimer() on an armed slot");
    timer = Timer{at < now_ ? now_ : at, queue_.TakeSeq(), fn};
  }
  template <auto Handler, typename C>
  void ArmTimer(std::size_t slot, SimTime at, C* owner) {
    ArmTimer(slot, at, EventFn::Of<Handler>(owner));
  }

  // Clears `slot`.  Returns true, and counts a cancel, if it was armed.
  bool CancelTimer(std::size_t slot) {
    Timer& timer = timers_[slot];
    if (!timer.armed()) {
      return false;
    }
    timer.fn.fire = nullptr;
    ++events_cancelled_;
    return true;
  }

  bool TimerArmed(std::size_t slot) const { return timers_[slot].armed(); }

  // Runs events with time <= deadline; afterwards Now() == deadline unless
  // the run was cancelled.  Events scheduled exactly at the deadline do fire.
  void RunUntil(SimTime deadline);

  // Runs exactly one event, the earliest pending one, queued or in a timer
  // slot, if it is due by `deadline`.  Returns false if none is.
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

  // Live pending events, queued or in an armed timer slot.
  std::size_t PendingEvents() const {
    std::size_t n = queue_.Size();
    for (const Timer& timer : timers_) {
      n += timer.armed() ? 1 : 0;
    }
    return n;
  }

  // --- Snapshot support (src/sim/snapshot.h) --------------------------------

  // Original insertion sequence of a live event; components record it at
  // save time so restored events re-arm in their original tie-break order.
  std::uint64_t EventSeq(EventId id) const { return queue_.SeqOf(id); }
  // Absolute fire time of a live event, read off the queue at save time, so
  // no component keeps its own copy of when its events fire.
  SimTime EventAt(EventId id) const { return queue_.TimeOf(id); }

  // Fire time and sequence number of an armed timer slot.
  SimTime TimerAt(std::size_t slot) const { return timers_[slot].at; }
  std::uint64_t TimerSeq(std::size_t slot) const { return timers_[slot].seq; }

  // Starts a load: drops every pending event, whoever armed it (their ids go
  // stale, so an owner's old id cancels nothing, and every timer slot is
  // cleared), then sets the clock and the sim.* counters to the image's.
  void RestoreClock(SimTime now, std::uint64_t executed, std::uint64_t cancelled) {
    queue_.Clear();
    timers_ = {};
    now_ = now;
    events_executed_ = executed;
    events_cancelled_ = cancelled;
  }

  // Re-arms a saved event at its saved fire time and sequence number, so it
  // fires where it did in the saved run among events tied on time; every
  // later At() sorts behind it.  A time before Now() fires at Now(), as in
  // At().
  EventId Rearm(SimTime at, std::uint64_t seq, EventFn fn) {
    return queue_.Restore(at < now_ ? now_ : at, seq, fn);
  }
  // Rearm for a timer slot: whatever `slot` held is replaced.
  void RearmTimer(std::size_t slot, SimTime at, std::uint64_t seq, EventFn fn) {
    queue_.PassSeq(seq);
    timers_[slot] = Timer{at < now_ ? now_ : at, seq, fn};
  }

 private:
  struct Timer {
    SimTime at;
    std::uint64_t seq = 0;
    // A null fire pointer marks an empty slot.
    EventFn fn{};

    bool armed() const { return fn.fire != nullptr; }
    // True if this slot fires before an event at (`other_at`, `other_seq`).
    bool Before(SimTime other_at, std::uint64_t other_seq) const {
      return at != other_at ? at < other_at : seq < other_seq;
    }
  };

  EventQueue queue_;
  std::array<Timer, kTimerSlots> timers_{};
  SimTime now_;
  const std::atomic<bool>* cancel_ = nullptr;
  std::uint64_t events_executed_ = 0;
  std::uint64_t events_cancelled_ = 0;
};

}  // namespace dcs

#endif  // SRC_SIM_SIMULATOR_H_
