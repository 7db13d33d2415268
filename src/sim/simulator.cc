#include "src/sim/simulator.h"

namespace dcs {

bool Simulator::Step(SimTime deadline) {
  if (timers_.empty()) {
    return false;
  }
  // The earliest slot by (at, seq).  Empty slots sort last, so the scan has
  // no armed test; only the winner is checked for being armed.  The compare
  // branches on `at` and reads `seq` only on a tie.  A branch-free compare
  // (one 128-bit key, conditional moves) ran fleet_clone slower: it chains
  // every slot through the running minimum, while these branches mostly
  // predict, since an empty slot never wins.
  std::size_t first = 0;
  SimTime at = timers_[0].at;
  std::uint64_t seq = timers_[0].seq;
  for (std::size_t i = 1; i < timers_.size(); ++i) {
    const Timer& candidate = timers_[i];
    if (candidate.at < at || (candidate.at == at && candidate.seq < seq)) {
      at = candidate.at;
      seq = candidate.seq;
      first = i;
    }
  }
  Timer& timer = timers_[first];
  if (!timer.armed() || timer.at > deadline) {
    return false;
  }
  // Cleared before the call, so the handler may re-arm its own slot.  No
  // reference into timers_ survives the call: a handler that adds a task
  // registers a slot, which may move the array.
  const EventFn fn = timer.fn;
  now_ = timer.at;
  timer = Timer{};
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
