#include "src/sim/simulator.h"

namespace dcs {

EventId Simulator::At(SimTime at, EventFn fn) {
  if (at < now_) {
    at = now_;
  }
  return queue_.Push(at, fn);
}

bool Simulator::Cancel(EventId id) {
  const bool cancelled = queue_.Cancel(id);
  if (cancelled) {
    ++events_cancelled_;
  }
  return cancelled;
}

bool Simulator::Step(SimTime deadline) {
  // The armed slot that fires first.
  Timer* first = nullptr;
  for (Timer& timer : timers_) {
    if (timer.armed() && (first == nullptr || timer.Before(first->at, first->seq))) {
      first = &timer;
    }
  }
  // Sequence numbers are unique, so the queue head fires first unless the
  // slot is before it.
  if (!queue_.Empty() &&
      (first == nullptr || !first->Before(queue_.NextTime(), queue_.NextSeq()))) {
    if (queue_.NextTime() > deadline) {
      return false;
    }
    const EventQueue::Entry entry = queue_.Pop();
    now_ = entry.at;
    ++events_executed_;
    entry.fn();
    return true;
  }
  if (first == nullptr || first->at > deadline) {
    return false;
  }
  // Cleared before the call, so the handler may re-arm its own slot.
  const EventFn fn = first->fn;
  first->fn.fire = nullptr;
  now_ = first->at;
  ++events_executed_;
  fn();
  return true;
}

void Simulator::RunUntil(SimTime deadline) {
  while (!CancelRequested() && Step(deadline)) {
  }
  // A cancelled run leaves now_ wherever the last event put it: the
  // simulation did not reach the deadline and must not pretend it did.
  if (!CancelRequested() && now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace dcs
