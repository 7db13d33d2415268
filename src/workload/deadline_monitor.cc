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

void SaveStats(SnapshotWriter* w, const DeadlineMonitor::StreamStats& s) {
  w->I64(s.total);
  w->I64(s.missed);
  w->Time(s.worst_lateness);
  w->Time(s.total_lateness);
  w->Time(s.worst_overrun);
  w->Bytes(s.latency_us.buckets().data(), sizeof(std::uint64_t) * LogHistogram::kBuckets);
  w->U64(s.latency_us.count());
  w->F64(s.latency_us.sum());
  w->F64(s.latency_us.min());
  w->F64(s.latency_us.max());
  w->I64(s.rejected);
  w->I64(s.shed);
}

void LoadStats(SnapshotReader* r, DeadlineMonitor::StreamStats* s) {
  s->total = r->I64();
  s->missed = r->I64();
  s->worst_lateness = r->Time();
  s->total_lateness = r->Time();
  s->worst_overrun = r->Time();
  std::array<std::uint64_t, LogHistogram::kBuckets> buckets;
  r->Bytes(buckets.data(), sizeof(std::uint64_t) * LogHistogram::kBuckets);
  const std::uint64_t count = r->U64();
  const double sum = r->F64();
  const double min = r->F64();
  const double max = r->F64();
  s->latency_us.Restore(buckets, count, sum, min, max);
  s->rejected = r->I64();
  s->shed = r->I64();
}

}  // namespace

void DeadlineMonitor::SaveState(SnapshotWriter* w) const {
  w->Tag(kDeadlineTag);
  w->U64(streams_.size());
  for (const auto& [name, stats] : streams_) {
    w->Span(name.data(), name.size());
    SaveStats(w, stats);
  }
}

void DeadlineMonitor::LoadState(SnapshotReader* r) {
  r->Tag(kDeadlineTag);
  const std::size_t n = r->Count(sizeof(std::uint64_t));  // each name span's length
  char buf[256];
  if (n == streams_.size()) {
    // Same key set as the image (fleet device cycling): restore each stream
    // in place, verifying the names line up, with no allocation.
    for (auto& [name, stats] : streams_) {
      const std::size_t len = r->SpanInto(buf, sizeof(buf));
      if (!r->ok() || len != name.size() || std::memcmp(buf, name.data(), len) != 0) {
        r->Fail();
        return;
      }
      LoadStats(r, &stats);
    }
    return;
  }
  // Fresh (or differently-shaped) monitor: rebuild the key set.  This is the
  // one restore path that allocates; it runs once per worker, not per device.
  streams_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = r->SpanInto(buf, sizeof(buf));
    if (!r->ok()) {
      return;
    }
    LoadStats(r, &streams_[std::string(buf, len)]);
  }
}

}  // namespace dcs
