#include "src/workload/deadline_monitor.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace dcs {

void DeadlineMonitor::Report(const std::string& stream, SimTime deadline, SimTime completed,
                             SimTime tolerance) {
  StreamStats& stats = streams_[stream];
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

void DeadlineMonitor::ReportRequest(const std::string& stream, SimTime arrival, SimTime slo,
                                    SimTime completed, SimTime tolerance) {
  Report(stream, arrival + slo, completed, tolerance);
  const SimTime latency = completed > arrival ? completed - arrival : SimTime::Zero();
  streams_[stream].latency_us.Observe(latency.ToMicrosF());
}

void DeadlineMonitor::ReportRejected(const std::string& stream, bool shed) {
  StreamStats& stats = streams_[stream];
  ++stats.rejected;
  if (shed) {
    ++stats.shed;
  }
}

DeadlineMonitor::StreamStats DeadlineMonitor::Stats(const std::string& stream) const {
  const auto it = streams_.find(stream);
  return it == streams_.end() ? StreamStats{} : it->second;
}

std::vector<std::string> DeadlineMonitor::Streams() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [name, stats] : streams_) {
    names.push_back(name);
  }
  return names;
}

std::int64_t DeadlineMonitor::TotalEvents() const {
  std::int64_t n = 0;
  for (const auto& [name, stats] : streams_) {
    n += stats.total;
  }
  return n;
}

std::int64_t DeadlineMonitor::TotalMissed() const {
  std::int64_t n = 0;
  for (const auto& [name, stats] : streams_) {
    n += stats.missed;
  }
  return n;
}

std::int64_t DeadlineMonitor::TotalRejected() const {
  std::int64_t n = 0;
  for (const auto& [name, stats] : streams_) {
    n += stats.rejected;
  }
  return n;
}

std::int64_t DeadlineMonitor::TotalShed() const {
  std::int64_t n = 0;
  for (const auto& [name, stats] : streams_) {
    n += stats.shed;
  }
  return n;
}

SimTime DeadlineMonitor::WorstLateness() const {
  SimTime worst;
  for (const auto& [name, stats] : streams_) {
    worst = std::max(worst, stats.worst_lateness);
  }
  return worst;
}

SimTime DeadlineMonitor::WorstOverrun() const {
  SimTime worst;
  for (const auto& [name, stats] : streams_) {
    worst = std::max(worst, stats.worst_overrun);
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
  std::size_t n = streams_.size();
  io.Count(n, SnapshotIo::kNoBound, sizeof(std::uint64_t));  // each name's length
  if (n == streams_.size()) {
    // Same key set as the image (every save, and fleet device cycling):
    // each stream in place, its name verified against the image's, with no
    // allocation.
    for (auto& [name, stats] : streams_) {
      std::string& image_name = io.saving() ? const_cast<std::string&>(name) : name_scratch_;
      if (!Name(io, image_name) || !io.Check(image_name == name)) {
        return;
      }
      StreamImage(io, stats);
    }
    return;
  }
  // Fresh (or differently-shaped) monitor: rebuild the key set.  This is the
  // one restore path that allocates; it runs once per worker, not per device.
  streams_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (!Name(io, name_scratch_)) {
      return;
    }
    StreamImage(io, streams_[name_scratch_]);
  }
}

}  // namespace dcs
