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

bool Simulator::Step() {
  if (queue_.Empty()) {
    return false;
  }
  const EventQueue::Entry entry = queue_.Pop();
  now_ = entry.at;
  ++events_executed_;
  entry.fn();
  return true;
}

void Simulator::Run() {
  while (!CancelRequested() && Step()) {
  }
}

void Simulator::RunUntil(SimTime deadline) {
  while (!CancelRequested() && !queue_.Empty() && queue_.NextTime() <= deadline) {
    Step();
  }
  // A cancelled run leaves now_ wherever the last event put it: the
  // simulation did not reach the deadline and must not pretend it did.
  if (!CancelRequested() && now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace dcs
