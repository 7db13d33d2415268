// Cancellable priority queue of timed events for the discrete-event engine.
//
// An event is a call to its owner: a 24-byte EventFn record {handler, owner,
// aux} naming a member function, the object it runs on and one integer
// argument (a sleeping task's pid).  Records live in a slot pool (free-listed
// vector, no hashing, 32-byte slots, nothing allocated per event); the order
// lives in one array of 24-byte {time, seq, slot} entries holding only live
// events, kept sorted latest-first so the next event to fire is at the
// back.  Pop and NextTime read back() in O(1); Push inserts by shifting
// later-firing entries from the back; Cancel finds its entry by slot and
// erases it on the spot.  No cancelled event is ever left behind.
//
// The bound this relies on: the queue stays short.  A simulated device's
// pending work is a fixed handful — the 10 ms tick, one dispatch, one
// completion, a brownout settle and an invariant sweep — plus one wake per
// sleeping task, as in the paper's Linux 2.0.30 kernel.  Measured on the
// perfbench workloads, no run ever held more than 4 live events (mean 2.6
// on fleet_clone, 3.0 on paper_sweep, 2.1 on server_openloop), so the linear
// shifts touch one or two cache lines.  A lazily-deleting heap carried 32.6
// entries per pop on fleet_clone, most of them cancelled, because every
// fleet device restore then cancelled all armed events.  Push and Cancel
// are O(n) in live events: a workload holding thousands of timers at once
// would want a heap again.
//
// EventId encoding: bits [63:32] hold the slot's generation, bits [31:0] the
// slot index.  Generations start at 1 and advance every time a slot is freed
// (cancel, pop or clear), so an id is live iff its generation matches its
// slot's current one — stale ids from any earlier lifetime of the slot fail
// the match, and kInvalidEventId (0) can never collide because no issued id
// has generation 0.  A single slot would need 2^32 free transitions for its
// generation to wrap and an id to repeat; no simulated workload approaches
// that.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/sim/arena.h"
#include "src/sim/time.h"

namespace dcs {

// Identifies a scheduled event; returned by Push() and accepted by Cancel().
// Ids are unique for the lifetime of the queue and never reused.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

// What an event does when it fires: fire(owner, aux).  Of<&C::Handler>
// builds the record for a member `void Handler()` or `void Handler(Arg)`,
// Arg an integer taken from `aux`.  Plain data, so the queue copies it with
// its slot and the snapshot re-arm (src/sim/snapshot.h) keeps it as it is;
// the owner must outlive every event it arms, as a component's events do.
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

class EventQueue {
 public:
  // Heap-backed by default; binding an Arena routes the slot pool and the
  // pending array through it so a reused queue allocates nothing in steady
  // state.
  EventQueue() = default;
  explicit EventQueue(Arena* arena)
      : slots_(ArenaAllocator<Slot>(arena)), pending_(ArenaAllocator<Pending>(arena)) {}

  // Non-copyable: events point at their owners, so an accidental copy
  // would double-fire them.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Push / Restore / Cancel / Pop are defined inline below: they run once
  // per simulated event.

  // Schedules `fn` at absolute time `at`.  Events that tie on time fire in
  // insertion order.
  EventId Push(SimTime at, EventFn fn);

  // Cancels a previously scheduled event.  Returns true if the event was
  // still pending (i.e. had not fired and had not already been cancelled).
  bool Cancel(EventId id);

  // Drops every live event: their slots are freed, so their ids go stale,
  // and the sequence counter starts again from 0.
  void Clear();

  // Schedules `fn` at `at` under a sequence number saved from an earlier
  // run (SeqOf), so it keeps its place among events tied on time.  Raises
  // the counter past `seq`: every later Push sorts behind it.
  EventId Restore(SimTime at, std::uint64_t seq, EventFn fn);

  // True if no live events remain.
  bool Empty() const { return pending_.empty(); }

  // Number of live (non-cancelled, not-yet-fired) events.
  std::size_t Size() const { return pending_.size(); }

  // Time of the earliest live event.  Requires !Empty().
  SimTime NextTime() const {
    assert(!pending_.empty() && "NextTime() on empty queue");
    return pending_.back().at;
  }

  // Removes and returns the earliest live event.  Requires !Empty().
  struct Entry {
    SimTime at;
    EventId id;
    EventFn fn;
  };
  Entry Pop();

  // Original insertion sequence number of a live event.  The snapshot layer
  // records it at save time and Restore()s the event under it, so it keeps
  // its FIFO tie-break order (src/sim/snapshot.h).  Returns 0 for ids that
  // are no longer live.
  std::uint64_t SeqOf(EventId id) const;
  // Fire time of a live event (zero for ids that are no longer live).
  SimTime TimeOf(EventId id) const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Slot {
    std::uint32_t generation = 1;
    // While free: index of the next free slot (kNoSlot ends the list).
    std::uint32_t next_free = kNoSlot;
    // Meaningful only while the slot is live.
    EventFn fn;
  };
  static_assert(sizeof(Slot) == 32);
  struct Pending {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // True if `a` fires before `b`: strict (time, seq) order.
  static bool Earlier(const Pending& a, const Pending& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    return a.seq < b.seq;
  }

  // The live id of an occupied slot.
  EventId IdOf(std::uint32_t slot) const {
    return (static_cast<EventId>(slots_[slot].generation) << 32) | slot;
  }

  // The pending entry of a live event, or null.
  const Pending* Find(EventId id) const;

  // True if `id` names an event that is still pending.
  bool IsLive(EventId id) const {
    const std::uint32_t slot = static_cast<std::uint32_t>(id);
    return slot < slots_.size() && slots_[slot].generation == static_cast<std::uint32_t>(id >> 32);
  }

  // Frees `slot` (stales its id) and returns it to the free list.
  void ReleaseSlot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  ArenaVector<Slot> slots_;
  // Every live event, sorted latest-first: back() fires next.
  ArenaVector<Pending> pending_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
};

inline EventId EventQueue::Push(SimTime at, EventFn fn) {
  // The new entry has the largest seq, so it sorts in front of (fires after)
  // every entry at the same time: FIFO ties.
  return Restore(at, next_seq_, fn);
}

inline EventId EventQueue::Restore(SimTime at, std::uint64_t seq, EventFn fn) {
  if (seq >= next_seq_) {
    next_seq_ = seq + 1;
  }
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    assert(slots_.size() < kNoSlot && "slot index space exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = fn;
  const Pending entry{at, seq, slot};
  pending_.push_back(entry);
  std::size_t i = pending_.size() - 1;
  while (i > 0 && Earlier(pending_[i - 1], entry)) {
    pending_[i] = pending_[i - 1];
    --i;
  }
  pending_[i] = entry;
  return IdOf(slot);
}

inline bool EventQueue::Cancel(EventId id) {
  if (!IsLive(id)) {
    return false;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  // Search from the back: cancels mostly hit near-term work (a completion
  // or dispatch), which sits there.
  std::size_t i = pending_.size();
  do {
    --i;
  } while (pending_[i].slot != slot);
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
  ReleaseSlot(slot);
  return true;
}

inline EventQueue::Entry EventQueue::Pop() {
  assert(!pending_.empty() && "Pop() on empty queue");
  const Pending next = pending_.back();
  pending_.pop_back();
  const Entry entry{next.at, IdOf(next.slot), slots_[next.slot].fn};
  ReleaseSlot(next.slot);
  return entry;
}

}  // namespace dcs

#endif  // SRC_SIM_EVENT_QUEUE_H_
