// Bounded in-kernel scheduler activity log.
//
// The paper: "For each scheduling decision, we record the process identifier
// of the process being scheduled, the time at which it was scheduled (with
// microsecond resolution) and the current clock rate.  Due to kernel memory
// limitations, we could only capture a subset of the process behavior."
// We reproduce both the record format and the bounded-memory behaviour (a
// ring buffer that overwrites the oldest entries).

#ifndef SRC_KERNEL_SCHED_LOG_H_
#define SRC_KERNEL_SCHED_LOG_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/kernel/task.h"
#include "src/sim/arena.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

struct SchedLogEntry {
  std::int64_t time_us = 0;  // microsecond resolution, like the paper
  Pid pid = 0;
  int clock_step = 0;
};

class SchedLog {
 public:
  // `capacity` bounds kernel memory; older entries are overwritten, and a
  // zero capacity records nothing.  The backing store grows lazily up to
  // `capacity` (short runs never pay for the full ring) and is routed
  // through `arena` when one is bound.
  explicit SchedLog(std::size_t capacity = 1 << 18, Arena* arena = nullptr);

  void Record(SimTime at, Pid pid, int clock_step);

  // Entries in chronological order (oldest surviving entry first).
  std::vector<SchedLogEntry> Snapshot() const;

  // Total records attempted, including ones that were overwritten.
  std::uint64_t total_recorded() const { return total_; }
  std::size_t capacity() const { return capacity_; }
  bool Wrapped() const { return total_ > capacity_; }

  void Clear();

  // Device-snapshot image (src/sim/snapshot.h): the raw ring contents plus
  // the wrap counters.  In-place restore shrinks into the lazily-grown
  // buffer's existing capacity.
  void Snapshot(SnapshotIo& io) {
    io.Window(buffer_, capacity_);
    io(next_, total_);
    // Record() writes buffer_[next_] and Snapshot() reads min(total_,
    // capacity_) entries; an image that breaks either bound, or fails to
    // load at all, leaves an empty log.
    if (!io.Check((capacity_ == 0 || next_ < capacity_) &&
                  buffer_.size() >= std::min<std::uint64_t>(total_, capacity_)) ||
        !io.ok()) {
      buffer_.clear();
      Clear();
    }
  }

 private:
  ArenaVector<SchedLogEntry> buffer_;  // grows to at most capacity_
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;  // always total_ % capacity_
  std::uint64_t total_ = 0;
};

}  // namespace dcs

#endif  // SRC_KERNEL_SCHED_LOG_H_
