#include "src/workload/deadline_monitor.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace dcs {

DeadlineMonitor::Index::iterator DeadlineMonitor::FindOrAdd(std::string_view name) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    it = index_.emplace(std::string(name), static_cast<std::uint32_t>(entries_.size())).first;
    entries_.emplace_back();
  }
  return it;
}

DeadlineMonitor::Stream DeadlineMonitor::Intern(std::string_view name) {
  return Stream(FindOrAdd(name)->second);
}

void DeadlineMonitor::Report(Stream stream, SimTime deadline, SimTime completed,
                             SimTime tolerance) {
  Entry& entry = entries_[stream.index_];
  entry.reported = true;
  StreamStats& stats = entry.stats;
  ++stats.total;
  // Miss and lateness share one threshold (see header): an event inside the
  // tolerance window contributes neither.
  const SimTime threshold = deadline + tolerance;
  const SimTime lateness =
      completed > threshold ? completed - threshold : SimTime::Zero();
  if (completed > threshold) {
    ++stats.missed;
  }
  stats.worst_lateness = std::max(stats.worst_lateness, lateness);
  stats.total_lateness += lateness;
  const SimTime overrun =
      completed > deadline ? completed - deadline : SimTime::Zero();
  stats.worst_overrun = std::max(stats.worst_overrun, overrun);
}

void DeadlineMonitor::ReportRequest(Stream stream, SimTime arrival, SimTime slo,
                                    SimTime completed, SimTime tolerance) {
  Report(stream, arrival + slo, completed, tolerance);
  const SimTime latency = completed > arrival ? completed - arrival : SimTime::Zero();
  entries_[stream.index_].stats.latency_us.Observe(latency.ToMicrosF());
}

void DeadlineMonitor::ReportRejected(Stream stream, bool shed) {
  Entry& entry = entries_[stream.index_];
  entry.reported = true;
  ++entry.stats.rejected;
  if (shed) {
    ++entry.stats.shed;
  }
}

DeadlineMonitor::StreamStats DeadlineMonitor::Stats(const std::string& stream) const {
  const auto it = index_.find(stream);
  return it == index_.end() ? StreamStats{} : entries_[it->second].stats;
}

std::vector<std::string> DeadlineMonitor::Streams() const {
  std::vector<std::string> names;
  for (const auto& [name, index] : index_) {
    if (entries_[index].reported) {
      names.push_back(name);
    }
  }
  return names;
}

void DeadlineMonitor::Clear() {
  for (Entry& entry : entries_) {
    entry = Entry{};
  }
}

std::int64_t DeadlineMonitor::TotalEvents() const {
  std::int64_t n = 0;
  for (const Entry& entry : entries_) {
    n += entry.stats.total;
  }
  return n;
}

std::int64_t DeadlineMonitor::TotalMissed() const {
  std::int64_t n = 0;
  for (const Entry& entry : entries_) {
    n += entry.stats.missed;
  }
  return n;
}

std::int64_t DeadlineMonitor::TotalRejected() const {
  std::int64_t n = 0;
  for (const Entry& entry : entries_) {
    n += entry.stats.rejected;
  }
  return n;
}

std::int64_t DeadlineMonitor::TotalShed() const {
  std::int64_t n = 0;
  for (const Entry& entry : entries_) {
    n += entry.stats.shed;
  }
  return n;
}

SimTime DeadlineMonitor::WorstLateness() const {
  SimTime worst;
  for (const Entry& entry : entries_) {
    worst = std::max(worst, entry.stats.worst_lateness);
  }
  return worst;
}

SimTime DeadlineMonitor::WorstOverrun() const {
  SimTime worst;
  for (const Entry& entry : entries_) {
    worst = std::max(worst, entry.stats.worst_overrun);
  }
  return worst;
}

namespace {

constexpr std::uint32_t kDeadlineTag = 0x444C4D4Eu;  // "DLMN"

void StreamImage(SnapshotIo& io, DeadlineMonitor::StreamStats& s) {
  io(s.total, s.missed, s.worst_lateness, s.total_lateness, s.worst_overrun);
  s.latency_us.Snapshot(io);
  io(s.rejected, s.shed);
}

// A stream name: U64 length, then at most 256 bytes.
bool Name(SnapshotIo& io, std::string& name) {
  io.Window(name, 256);
  return io.ok();
}

}  // namespace

void DeadlineMonitor::Snapshot(SnapshotIo& io) {
  io.Tag(kDeadlineTag);
  std::size_t n = 0;
  for (const Entry& entry : entries_) {
    n += entry.reported ? 1 : 0;
  }
  io.Count(n, SnapshotIo::kNoBound, sizeof(std::uint64_t));  // each name's length
  if (io.saving()) [[unlikely]] {
    for (const auto& [name, index] : index_) {
      Entry& entry = entries_[index];
      if (entry.reported) {
        Name(io, const_cast<std::string&>(name));
        StreamImage(io, entry.stats);
      }
    }
    return;
  }
  Clear();
  const std::string* previous = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    // Names come in strictly ascending order, as saved, so no stream loads
    // twice.
    if (!Name(io, name_scratch_) || !io.Check(previous == nullptr || *previous < name_scratch_)) {
      return;
    }
    // A name this monitor has not interned yet (a fresh monitor) is the one
    // load path that allocates; it runs once per worker, not per device.
    const auto it = FindOrAdd(name_scratch_);
    previous = &it->first;
    Entry& entry = entries_[it->second];
    entry.reported = true;
    StreamImage(io, entry.stats);
  }
}

}  // namespace dcs
