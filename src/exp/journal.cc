#include "src/exp/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "src/exp/atomic_io.h"
#include "src/sim/fields.h"

namespace dcs {
namespace {

constexpr std::uint8_t kHeaderFrame = 1;
constexpr std::uint8_t kRecordFrame = 2;

// Guards against an absurd frame length from a corrupt size field.  Lengths
// inside a payload need no cap: SnapshotReader checks each one against the
// bytes that remain before it allocates.
constexpr std::uint32_t kMaxPayload = 256u << 20;  // 256 MiB

void SetIoError(std::string* error, const std::string& path, const char* op) {
  if (error != nullptr) {
    *error = std::string(op) + " journal '" + path + "'" +
             (errno != 0 ? std::string(": ") + std::strerror(errno) : std::string());
  }
}

}  // namespace

// --- Fingerprints -----------------------------------------------------------

namespace {

class Fnv1a {
 public:
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= b[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void I64(std::int64_t v) { Bytes(&v, sizeof(v)); }
  void I32(std::int32_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void Time(SimTime t) { I64(t.nanos()); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }

  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// Hashes a field by its type: the encoding every journal on disk was written
// with.  Struct fields walk their field list (src/sim/fields.h).
template <typename T>
void Hash(Fnv1a& h, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    h.F64(v);
  } else if constexpr (std::is_same_v<T, int> || std::is_same_v<T, bool> || std::is_enum_v<T>) {
    h.I32(static_cast<std::int32_t>(v));
  } else if constexpr (std::is_same_v<T, std::uint64_t> || std::is_same_v<T, std::size_t>) {
    h.U64(v);
  } else if constexpr (std::is_same_v<T, SimTime>) {
    h.Time(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    h.Str(v);
  } else if constexpr (OptionalField<T>) {
    h.I32(v.has_value() ? 1 : 0);
    if (v.has_value()) {
      Hash(h, *v);
    }
  } else if constexpr (VectorField<T>) {
    h.U64(v.size());
    for (const auto& element : v) {
      Hash(h, element);
    }
  } else {
    std::apply([&h, &v](auto... member) { (Hash(h, v.*member), ...); }, Fields(&v));
  }
}

}  // namespace

// The top-level fields are listed here: `duration` hashes as -1 when absent,
// and `capture_obs`, `cancel` and `arena` change how a job runs, not what it
// computes.  A new field breaks this assert until it is placed.
static_assert(sizeof(ExperimentConfig) ==
              LaidOutSize<std::string, std::string, std::uint64_t, std::optional<SimTime>,
                          std::optional<MpegConfig>, std::optional<ServerConfig>, ItsyConfig,
                          KernelConfig, DaqConfig, std::string, bool, const std::atomic<bool>*,
                          Arena*>());

std::uint64_t ConfigFingerprint(const ExperimentConfig& c) {
  Fnv1a h;
  h.Str(c.app);
  h.Str(c.governor);
  h.U64(c.seed);
  h.I64(c.duration.has_value() ? c.duration->nanos() : std::int64_t{-1});
  h.Str(c.faults);
  Hash(h, c.mpeg);
  Hash(h, c.server);
  Hash(h, c.itsy);
  Hash(h, c.kernel);
  Hash(h, c.daq);
  return h.hash();
}

std::uint64_t GridFingerprint(const std::vector<ExperimentConfig>& configs) {
  Fnv1a h;
  h.U64(configs.size());
  for (const ExperimentConfig& c : configs) {
    h.U64(ConfigFingerprint(c));
  }
  return h.hash();
}

// --- Result serialization ---------------------------------------------------

namespace {

// The journal's histogram: the summary, then only the non-empty buckets, as
// (U32 index, U64 count) pairs.
void Histogram(SnapshotIo& io, LogHistogram& hist) {
  std::uint64_t count = hist.count();
  double sum = hist.sum();
  double min = hist.min();
  double max = hist.max();
  io(count, sum, min, max);
  std::array<std::uint64_t, LogHistogram::kBuckets> buckets{};
  if (io.saving()) {
    buckets = hist.buckets();
  }
  std::size_t nonzero = static_cast<std::size_t>(
      std::count_if(buckets.begin(), buckets.end(), [](std::uint64_t b) { return b != 0; }));
  io.Count<std::uint32_t>(nonzero, LogHistogram::kBuckets,
                          sizeof(std::uint32_t) + sizeof(std::uint64_t));
  std::uint32_t index = 0;
  for (std::size_t i = 0; i < nonzero; ++i) {
    while (io.saving() && buckets[index] == 0) {
      ++index;
    }
    std::uint64_t value = buckets[index];
    io(index, value);
    if (!io.Check(index < static_cast<std::uint32_t>(LogHistogram::kBuckets))) {
      return;
    }
    buckets[index++] = value;
  }
  if (io.loading()) {
    hist.Restore(buckets, count, sum, min, max);
  }
}

template <typename Map>
std::vector<std::string> Keys(const Map& map) {
  std::vector<std::string> keys;
  for (const auto& entry : map) {
    keys.push_back(entry.first);
  }
  return keys;
}

// A string-keyed collection: a U32 count, then each entry's name and value.
// Saves walk `names`; loads read the names from the image.  `slot(name)`
// finds the entry (creating it on load), and `value` describes it.
template <typename Slot, typename Value>
void Named(SnapshotIo& io, std::vector<std::string> names, Slot&& slot, Value&& value) {
  std::size_t n = names.size();
  io.Count<std::uint32_t>(n, SnapshotIo::kNoBound, sizeof(std::uint32_t));
  for (std::size_t i = 0; i < n && io.ok(); ++i) {
    std::string name = io.saving() ? names[i] : std::string();
    io(name);
    value(slot(name));
  }
}

void Metrics(SnapshotIo& io, MetricsRegistry& m) {
  const auto field = [&io](auto& instrument) { instrument.Snapshot(io); };
  Named(io, Keys(m.counters()),
        [&m](const std::string& name) -> MetricsCounter& { return m.Counter(name); }, field);
  Named(io, Keys(m.gauges()),
        [&m](const std::string& name) -> MetricsGauge& { return m.Gauge(name); }, field);
  Named(io, Keys(m.histograms()),
        [&m](const std::string& name) -> LogHistogram& { return m.Histogram(name); },
        [&io](LogHistogram& hist) { Histogram(io, hist); });
}

void Result(SnapshotIo& io, ExperimentResult& r) {
  const auto field = [&io](auto& v) { io(v); };
  io(r.app, r.governor, r.duration, r.energy_joules, r.exact_energy_joules, r.average_watts,
     r.avg_utilization, r.quanta);
  io.As<std::int64_t>(r.clock_changes);
  io.As<std::int64_t>(r.voltage_transitions);
  io(r.total_stall, r.step_residency);
  Named(io, Keys(r.task_cpu_seconds),
        [&r](const std::string& task) -> double& { return r.task_cpu_seconds[task]; }, field);
  io(r.deadline_events, r.deadline_misses, r.worst_lateness, r.worst_overrun);
  Named(io, Keys(r.streams),
        [&r](const std::string& stream) -> DeadlineMonitor::StreamStats& {
          return r.streams[stream];
        },
        [&io](DeadlineMonitor::StreamStats& stats) {
          io(stats.total, stats.missed, stats.worst_lateness, stats.total_lateness,
             stats.worst_overrun, stats.rejected, stats.shed);
          Histogram(io, stats.latency_us);
        });
  Named(io, r.sink.Names(),
        [&r](const std::string& name) -> TraceSeries& { return r.sink.Series(name); },
        [&io](TraceSeries& series) { series.Snapshot<std::uint32_t>(io); });
  Metrics(io, r.metrics);

  FaultReport& f = r.faults;
  io(f.enabled, f.plan);
  Named(io, Keys(f.injected),
        [&f](const std::string& name) -> std::uint64_t& { return f.injected[name]; }, field);
  io(f.injected_total, f.transition_retries);
  io.As<std::int64_t>(f.brownouts);
  io(f.dropped_samples, f.invariant_checks, f.invariant_violations);
  io.Window<std::uint32_t>(f.violations, SnapshotIo::kNoBound, sizeof(std::uint32_t), field);
}

}  // namespace

void SerializeResult(const ExperimentResult& r, SnapshotWriter* out) {
  SnapshotIo io(out);
  Result(io, const_cast<ExperimentResult&>(r));
}

bool DeserializeResult(SnapshotReader* in, ExperimentResult* r) {
  SnapshotIo io(in);
  Result(io, *r);
  return in->ok() && in->AtEnd();
}

// --- Journal reading --------------------------------------------------------

namespace {

// Frame bodies, after the frame-type byte.
void Frame(SnapshotIo& io, JournalHeader& h) { io(h.version, h.grid_fingerprint, h.jobs, h.label); }

void Frame(SnapshotIo& io, JournalRecord& r) {
  io(r.slot, r.config_fingerprint, r.ok, r.quarantined, r.attempts, r.error);
  if (!r.ok) {
    return;
  }
  // The result is length-prefixed like a string, so a reader can bound it
  // before parsing it.
  std::string result;
  if (io.saving()) {
    SnapshotWriter w;
    SerializeResult(r.result, &w);
    result.assign(w.data(), w.size());
  }
  io(result);
  if (io.loading() && io.ok()) {
    SnapshotReader in(result.data(), result.size());
    io.Check(DeserializeResult(&in, &r.result));
  }
}

}  // namespace

std::vector<const JournalRecord*> JournalReadResult::MatchingRecords(
    std::uint64_t grid_fingerprint, std::uint32_t jobs) const {
  std::vector<const JournalRecord*> out;
  for (const JournalSegment& segment : segments) {
    if (segment.header.grid_fingerprint != grid_fingerprint || segment.header.jobs != jobs) {
      continue;
    }
    for (const JournalRecord& record : segment.records) {
      out.push_back(&record);
    }
  }
  return out;
}

JournalReadResult ReadJournal(const std::string& path) {
  JournalReadResult out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return out;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();

  std::size_t pos = 0;
  std::size_t frame_index = 0;
  while (pos < data.size()) {
    // Frame prologue: magic, length, crc.
    if (data.size() - pos < 12) {
      out.truncated = true;
      break;
    }
    std::uint32_t magic = 0;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::memcpy(&magic, data.data() + pos, 4);
    std::memcpy(&len, data.data() + pos + 4, 4);
    std::memcpy(&crc, data.data() + pos + 8, 4);
    if (magic != kJournalMagic || len == 0 || len > kMaxPayload) {
      out.truncated = true;
      out.violations.push_back("frame " + std::to_string(frame_index) +
                               ": bad magic or length; dropping tail");
      break;
    }
    if (data.size() - pos - 12 < len) {
      out.truncated = true;  // torn append: the frame never finished
      break;
    }
    const char* payload = data.data() + pos + 12;
    if (Crc32(payload, std::size_t{len}) != crc) {
      out.truncated = true;
      out.violations.push_back("frame " + std::to_string(frame_index) +
                               ": crc mismatch; dropping tail");
      break;
    }

    SnapshotReader reader(payload, len);
    SnapshotIo io(&reader);
    const std::uint8_t type = reader.U8();
    if (type == kHeaderFrame) {
      JournalSegment segment;
      Frame(io, segment.header);
      if (!reader.ok() || !reader.AtEnd()) {
        out.truncated = true;
        out.violations.push_back("frame " + std::to_string(frame_index) +
                                 ": malformed header; dropping tail");
        break;
      }
      if (segment.header.version != kJournalVersion) {
        // A future-format segment is skipped wholesale: its records are
        // recorded as a violation, never replayed.
        out.violations.push_back("frame " + std::to_string(frame_index) + ": version " +
                                 std::to_string(segment.header.version) +
                                 " != " + std::to_string(kJournalVersion) +
                                 "; segment ignored");
        segment.header.jobs = 0;  // poisons MatchingRecords for this segment
      }
      out.segments.push_back(std::move(segment));
    } else if (type == kRecordFrame) {
      if (out.segments.empty()) {
        out.violations.push_back("frame " + std::to_string(frame_index) +
                                 ": record before any header; ignored");
      } else {
        JournalSegment& segment = out.segments.back();
        JournalRecord record;
        Frame(io, record);
        if (!reader.ok()) {
          out.violations.push_back("frame " + std::to_string(frame_index) +
                                   ": malformed record; ignored");
        } else if (record.slot >= segment.header.jobs) {
          out.violations.push_back("frame " + std::to_string(frame_index) + ": slot " +
                                   std::to_string(record.slot) + " out of range (" +
                                   std::to_string(segment.header.jobs) + " jobs); ignored");
        } else {
          bool duplicate = false;
          for (const JournalRecord& prior : segment.records) {
            duplicate = duplicate || prior.slot == record.slot;
          }
          if (duplicate) {
            out.violations.push_back("frame " + std::to_string(frame_index) +
                                     ": duplicate slot " + std::to_string(record.slot) +
                                     "; first record wins");
          } else {
            segment.records.push_back(std::move(record));
          }
        }
      }
    } else {
      out.violations.push_back("frame " + std::to_string(frame_index) +
                               ": unknown frame type " + std::to_string(type) + "; ignored");
    }

    pos += 12 + len;
    out.valid_bytes = pos;
    out.readable = true;
    ++frame_index;
  }
  if (pos < data.size()) {
    out.truncated = true;
  }
  return out;
}

// --- JournalWriter ----------------------------------------------------------

std::unique_ptr<JournalWriter> JournalWriter::Create(const std::string& path,
                                                     std::string* error) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    SetIoError(error, path, "create");
    return nullptr;
  }
  return std::unique_ptr<JournalWriter>(new JournalWriter(fd, path));
}

std::unique_ptr<JournalWriter> JournalWriter::Append(const std::string& path,
                                                     std::uint64_t valid_bytes,
                                                     std::string* error) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    SetIoError(error, path, "open");
    return nullptr;
  }
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0) {
    SetIoError(error, path, "truncate torn tail of");
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<JournalWriter>(new JournalWriter(fd, path));
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool JournalWriter::AppendFrame(const SnapshotWriter& payload, std::string* error) {
  SnapshotWriter head;
  head.U32(kJournalMagic);
  head.U32(static_cast<std::uint32_t>(payload.size()));
  head.U32(Crc32(payload.data(), payload.size()));

  const SnapshotWriter* parts[] = {&head, &payload};
  for (const SnapshotWriter* part : parts) {
    std::size_t written = 0;
    while (written < part->size()) {
      const ssize_t n = ::write(fd_, part->data() + written, part->size() - written);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        SetIoError(error, path_, "append to");
        return false;
      }
      written += static_cast<std::size_t>(n);
    }
  }
  if (::fsync(fd_) != 0) {
    SetIoError(error, path_, "fsync");
    return false;
  }
  return true;
}

bool JournalWriter::AppendHeader(const JournalHeader& header, std::string* error) {
  SnapshotWriter payload;
  payload.U8(kHeaderFrame);
  SnapshotIo io(&payload);
  Frame(io, const_cast<JournalHeader&>(header));
  return AppendFrame(payload, error);
}

bool JournalWriter::AppendRecord(const JournalRecord& record, std::string* error) {
  SnapshotWriter payload;
  payload.U8(kRecordFrame);
  SnapshotIo io(&payload);
  Frame(io, const_cast<JournalRecord&>(record));
  return AppendFrame(payload, error);
}

}  // namespace dcs
