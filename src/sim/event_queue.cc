#include "src/sim/event_queue.h"

namespace dcs {

void EventQueue::Clear() {
  for (const Pending& entry : pending_) {
    ReleaseSlot(entry.slot);
  }
  pending_.clear();
  next_seq_ = 0;
}

const EventQueue::Pending* EventQueue::Find(EventId id) const {
  if (!IsLive(id)) {
    return nullptr;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  for (const Pending& entry : pending_) {
    if (entry.slot == slot) {
      return &entry;
    }
  }
  return nullptr;
}

std::uint64_t EventQueue::SeqOf(EventId id) const {
  const Pending* entry = Find(id);
  return entry != nullptr ? entry->seq : 0;
}

SimTime EventQueue::TimeOf(EventId id) const {
  const Pending* entry = Find(id);
  return entry != nullptr ? entry->at : SimTime::Zero();
}

}  // namespace dcs
