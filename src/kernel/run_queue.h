// Round-robin run queue, matching Linux 2.0.30's behaviour for same-priority
// tasks under the paper's forced-reschedule-every-tick modification.

#ifndef SRC_KERNEL_RUN_QUEUE_H_
#define SRC_KERNEL_RUN_QUEUE_H_

#include <deque>

#include "src/kernel/task.h"
#include "src/sim/arena.h"
#include "src/sim/snapshot.h"

namespace dcs {

class RunQueue {
 public:
  using PidDeque = std::deque<Pid, ArenaAllocator<Pid>>;

  // Heap-backed by default; arena-bound when the owning kernel is.
  RunQueue() = default;
  explicit RunQueue(Arena* arena) : queue_(ArenaAllocator<Pid>(arena)) {}

  bool Empty() const { return queue_.empty(); }
  std::size_t Size() const { return queue_.size(); }

  // Appends a runnable pid.  A pid must not be enqueued twice.
  void Push(Pid pid);

  // Removes and returns the pid at the front.  Requires !Empty().
  Pid Pop();

  bool Contains(Pid pid) const;

  // Front-to-back dispatch order (read-only; used by the invariant checker).
  const PidDeque& pids() const { return queue_; }

  // Device-snapshot support (src/sim/snapshot.h).  Order matters — it is the
  // round-robin dispatch order — so pids are replayed front to back.
  void Snapshot(SnapshotIo& io) {
    io.Window(queue_, SnapshotIo::kNoBound, sizeof(std::int64_t),
              [&io](Pid& pid) { io.As<std::int64_t>(pid); });
  }

 private:
  PidDeque queue_;
};

}  // namespace dcs

#endif  // SRC_KERNEL_RUN_QUEUE_H_
