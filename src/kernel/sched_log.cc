#include "src/kernel/sched_log.h"

namespace dcs {

SchedLog::SchedLog(std::size_t capacity, Arena* arena)
    : buffer_(ArenaAllocator<SchedLogEntry>(arena)), capacity_(capacity) {}

void SchedLog::Record(SimTime at, Pid pid, int clock_step) {
  if (capacity_ == 0) {
    return;
  }
  const SchedLogEntry entry{at.micros(), pid, clock_step};
  if (buffer_.size() < capacity_) {
    buffer_.push_back(entry);
  } else {
    buffer_[next_] = entry;
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

std::vector<SchedLogEntry> SchedLog::Snapshot() const {
  std::vector<SchedLogEntry> out;
  if (total_ == 0) {
    return out;
  }
  if (total_ <= capacity_) {
    out.assign(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(total_));
    return out;
  }
  out.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    out.push_back(buffer_[(next_ + i) % capacity_]);
  }
  return out;
}

void SchedLog::Clear() {
  next_ = 0;
  total_ = 0;
}

}  // namespace dcs
