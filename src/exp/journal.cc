#include "src/exp/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/exp/atomic_io.h"

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

void HashMemoryProfile(Fnv1a& h, const MemoryProfile& p) {
  h.F64(p.word_refs_per_kilocycle);
  h.F64(p.line_fills_per_kilocycle);
}

}  // namespace

std::uint64_t ConfigFingerprint(const ExperimentConfig& c) {
  Fnv1a h;
  h.Str(c.app);
  h.Str(c.governor);
  h.U64(c.seed);
  h.I64(c.duration.has_value() ? c.duration->nanos() : std::int64_t{-1});
  h.Str(c.faults);

  h.I32(c.mpeg.has_value() ? 1 : 0);
  if (c.mpeg.has_value()) {
    const MpegConfig& m = *c.mpeg;
    h.F64(m.fps);
    h.Time(m.duration);
    h.F64(m.mean_decode_ms_at_top);
    h.I32(m.gop_length);
    h.F64(m.i_factor);
    h.F64(m.p_factor);
    h.F64(m.b_factor);
    h.F64(m.jitter_stddev);
    h.Time(m.spin_threshold);
    h.I32(static_cast<std::int32_t>(m.pacing));
    h.I32(m.elastic ? 1 : 0);
    HashMemoryProfile(h, m.video_profile);
    HashMemoryProfile(h, m.audio_profile);
    h.Time(m.frame_tolerance);
    h.Time(m.audio_period);
    h.F64(m.audio_refill_ms_at_top);
    h.Time(m.av_sync_tolerance);
  }

  h.I32(c.server.has_value() ? 1 : 0);
  if (c.server.has_value()) {
    const ServerConfig& s = *c.server;
    h.I32(static_cast<std::int32_t>(s.arrivals));
    h.F64(s.rate_rps);
    h.Time(s.duration);
    h.Time(s.slo);
    h.F64(s.service_ms_at_top);
    h.F64(s.max_service_factor);
    HashMemoryProfile(h, s.profile);
    h.F64(s.burst_rate_factor);
    h.Time(s.calm_dwell_mean);
    h.Time(s.burst_dwell_mean);
    h.I32(s.onoff_sources);
    h.F64(s.pareto_shape);
    h.Time(s.pareto_on_min);
    h.Time(s.pareto_off_min);
    h.U64(s.streams.size());
    for (const ServerStreamClass& cls : s.streams) {
      h.Str(cls.name);
      h.F64(cls.value);
      h.F64(cls.weight);
    }
    const AdmissionConfig& a = s.admission;
    h.I32(static_cast<std::int32_t>(a.policy));
    h.F64(a.utilization_bound);
    h.F64(a.target_violation_rate);
    h.F64(a.decrease_factor);
    h.F64(a.increase_step);
    h.F64(a.min_bound);
    h.F64(a.max_bound);
    h.I32(a.feedback_window);
    h.F64(a.demand_ewma_weight);
    h.F64(a.speed_ewma_weight);
    h.F64(a.battery_shed_dod);
    h.Time(a.brownout_shed_hold);
    h.F64(a.degraded_bound_factor);
  }

  const ItsyConfig& i = c.itsy;
  h.F64(i.power.core_dynamic_mw_per_v2mhz);
  h.F64(i.power.core_static_busy_mw);
  h.F64(i.power.nap_mw_per_v2mhz);
  h.F64(i.power.stall_mw);
  h.F64(i.power.peripherals_mw);
  h.F64(i.power.audio_mw);
  h.F64(i.power.peripherals_display_off_mw);
  h.F64(i.power.peripherals_bus_mw_per_mhz);
  h.I32(i.initial_step);
  h.Time(i.clock_switch_stall);
  h.I32(static_cast<std::int32_t>(i.initial_voltage));
  h.I32(i.battery.has_value() ? 1 : 0);
  if (i.battery.has_value()) {
    h.F64(i.battery->peukert_capacity);
    h.F64(i.battery->peukert_exponent);
    h.F64(i.battery->reference_current_a);
    h.F64(i.battery->supply_volts);
    h.F64(i.battery->recoverable_fraction);
    h.F64(i.battery->recovery_per_hour);
  }

  const KernelConfig& k = c.kernel;
  h.Time(k.quantum);
  h.Time(k.tick_overhead);
  h.Time(k.yield_cost);
  h.U64(k.sched_log_capacity);
  h.U64(k.rng_seed);

  const DaqConfig& d = c.daq;
  h.F64(d.sample_hz);
  h.F64(d.shunt_ohms);
  h.F64(d.supply_volts);
  h.F64(d.shunt_range_volts);
  h.F64(d.supply_range_volts);
  h.I32(d.adc_bits);
  h.F64(d.noise_lsb);
  h.U64(d.seed);

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

void SerializeHistogram(const LogHistogram& hist, SnapshotWriter* out) {
  out->U64(hist.count());
  out->F64(hist.sum());
  out->F64(hist.min());
  out->F64(hist.max());
  std::uint32_t nonzero = 0;
  for (const std::uint64_t b : hist.buckets()) {
    nonzero += b != 0 ? 1 : 0;
  }
  out->U32(nonzero);
  for (int b = 0; b < LogHistogram::kBuckets; ++b) {
    if (hist.buckets()[static_cast<std::size_t>(b)] != 0) {
      out->U32(static_cast<std::uint32_t>(b));
      out->U64(hist.buckets()[static_cast<std::size_t>(b)]);
    }
  }
}

bool DeserializeHistogram(SnapshotReader* in, LogHistogram* hist) {
  const std::uint64_t count = in->U64();
  const double sum = in->F64();
  const double min = in->F64();
  const double max = in->F64();
  std::array<std::uint64_t, LogHistogram::kBuckets> buckets{};
  const std::uint32_t nonzero = in->U32();
  for (std::uint32_t b = 0; b < nonzero && in->ok(); ++b) {
    const std::uint32_t idx = in->U32();
    const std::uint64_t value = in->U64();
    if (idx >= static_cast<std::uint32_t>(LogHistogram::kBuckets)) {
      return false;
    }
    buckets[idx] = value;
  }
  hist->Restore(buckets, count, sum, min, max);
  return in->ok();
}

void SerializeMetrics(const MetricsRegistry& m, SnapshotWriter* out) {
  out->U32(static_cast<std::uint32_t>(m.counters().size()));
  for (const auto& [name, counter] : m.counters()) {
    out->Str(name);
    out->U64(counter.value());
  }
  out->U32(static_cast<std::uint32_t>(m.gauges().size()));
  for (const auto& [name, gauge] : m.gauges()) {
    out->Str(name);
    out->F64(gauge.sum());
    out->U64(gauge.samples());
  }
  out->U32(static_cast<std::uint32_t>(m.histograms().size()));
  for (const auto& [name, hist] : m.histograms()) {
    out->Str(name);
    SerializeHistogram(hist, out);
  }
}

bool DeserializeMetrics(SnapshotReader* in, MetricsRegistry* m) {
  const std::uint32_t counters = in->U32();
  for (std::uint32_t i = 0; i < counters && in->ok(); ++i) {
    const std::string name = in->Str();
    m->Counter(name).Inc(in->U64());
  }
  const std::uint32_t gauges = in->U32();
  for (std::uint32_t i = 0; i < gauges && in->ok(); ++i) {
    const std::string name = in->Str();
    const double sum = in->F64();
    const std::uint64_t samples = in->U64();
    m->Gauge(name).Restore(sum, samples);
  }
  const std::uint32_t histograms = in->U32();
  for (std::uint32_t i = 0; i < histograms && in->ok(); ++i) {
    const std::string name = in->Str();
    if (!DeserializeHistogram(in, &m->Histogram(name))) {
      return false;
    }
  }
  return in->ok();
}

void SerializeSink(const TraceSink& sink, SnapshotWriter* out) {
  const std::vector<std::string> names = sink.Names();
  out->U32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    const TraceSeries* series = sink.Find(name);
    out->Str(name);
    out->U32(series != nullptr ? static_cast<std::uint32_t>(series->size()) : 0);
    if (series != nullptr) {
      for (const TracePoint& p : series->points()) {
        out->Time(p.at);
        out->F64(p.value);
      }
    }
  }
}

bool DeserializeSink(SnapshotReader* in, TraceSink* sink) {
  const std::uint32_t names = in->U32();
  for (std::uint32_t i = 0; i < names && in->ok(); ++i) {
    const std::string name = in->Str();
    const std::uint32_t points = in->U32();
    if (!in->ok()) {
      return false;
    }
    TraceSeries& series = sink->Series(name);
    for (std::uint32_t p = 0; p < points && in->ok(); ++p) {
      const SimTime at = in->Time();
      const double value = in->F64();
      if (in->ok()) {
        series.Append(at, value);
      }
    }
  }
  return in->ok();
}

}  // namespace

void SerializeResult(const ExperimentResult& r, SnapshotWriter* out) {
  out->Str(r.app);
  out->Str(r.governor);
  out->Time(r.duration);
  out->F64(r.energy_joules);
  out->F64(r.exact_energy_joules);
  out->F64(r.average_watts);
  out->F64(r.avg_utilization);
  out->U64(r.quanta);
  out->I64(r.clock_changes);
  out->I64(r.voltage_transitions);
  out->Time(r.total_stall);
  for (const double share : r.step_residency) {
    out->F64(share);
  }
  out->U32(static_cast<std::uint32_t>(r.task_cpu_seconds.size()));
  for (const auto& [task, seconds] : r.task_cpu_seconds) {
    out->Str(task);
    out->F64(seconds);
  }
  out->I64(r.deadline_events);
  out->I64(r.deadline_misses);
  out->Time(r.worst_lateness);
  out->Time(r.worst_overrun);
  out->U32(static_cast<std::uint32_t>(r.streams.size()));
  for (const auto& [stream, stats] : r.streams) {
    out->Str(stream);
    out->I64(stats.total);
    out->I64(stats.missed);
    out->Time(stats.worst_lateness);
    out->Time(stats.total_lateness);
    out->Time(stats.worst_overrun);
    out->I64(stats.rejected);
    out->I64(stats.shed);
    SerializeHistogram(stats.latency_us, out);
  }
  SerializeSink(r.sink, out);
  SerializeMetrics(r.metrics, out);

  const FaultReport& f = r.faults;
  out->Bool(f.enabled);
  out->Str(f.plan);
  out->U32(static_cast<std::uint32_t>(f.injected.size()));
  for (const auto& [name, count] : f.injected) {
    out->Str(name);
    out->U64(count);
  }
  out->U64(f.injected_total);
  out->U64(f.transition_retries);
  out->I64(f.brownouts);
  out->U64(f.dropped_samples);
  out->U64(f.invariant_checks);
  out->U64(f.invariant_violations);
  out->U32(static_cast<std::uint32_t>(f.violations.size()));
  for (const std::string& v : f.violations) {
    out->Str(v);
  }
}

bool DeserializeResult(SnapshotReader* in, ExperimentResult* r) {
  r->app = in->Str();
  r->governor = in->Str();
  r->duration = in->Time();
  r->energy_joules = in->F64();
  r->exact_energy_joules = in->F64();
  r->average_watts = in->F64();
  r->avg_utilization = in->F64();
  r->quanta = in->U64();
  r->clock_changes = static_cast<int>(in->I64());
  r->voltage_transitions = static_cast<int>(in->I64());
  r->total_stall = in->Time();
  for (double& share : r->step_residency) {
    share = in->F64();
  }
  const std::uint32_t tasks = in->U32();
  for (std::uint32_t i = 0; i < tasks && in->ok(); ++i) {
    const std::string task = in->Str();
    const double seconds = in->F64();
    r->task_cpu_seconds.emplace(task, seconds);
  }
  r->deadline_events = in->I64();
  r->deadline_misses = in->I64();
  r->worst_lateness = in->Time();
  r->worst_overrun = in->Time();
  const std::uint32_t streams = in->U32();
  for (std::uint32_t i = 0; i < streams && in->ok(); ++i) {
    const std::string stream = in->Str();
    DeadlineMonitor::StreamStats stats;
    stats.total = in->I64();
    stats.missed = in->I64();
    stats.worst_lateness = in->Time();
    stats.total_lateness = in->Time();
    stats.worst_overrun = in->Time();
    stats.rejected = in->I64();
    stats.shed = in->I64();
    if (!DeserializeHistogram(in, &stats.latency_us)) {
      return false;
    }
    r->streams.emplace(stream, stats);
  }
  if (!DeserializeSink(in, &r->sink) || !DeserializeMetrics(in, &r->metrics)) {
    return false;
  }

  FaultReport& f = r->faults;
  f.enabled = in->Bool();
  f.plan = in->Str();
  const std::uint32_t injected = in->U32();
  for (std::uint32_t i = 0; i < injected && in->ok(); ++i) {
    const std::string name = in->Str();
    const std::uint64_t count = in->U64();
    f.injected.emplace(name, count);
  }
  f.injected_total = in->U64();
  f.transition_retries = in->U64();
  f.brownouts = static_cast<int>(in->I64());
  f.dropped_samples = in->U64();
  f.invariant_checks = in->U64();
  f.invariant_violations = in->U64();
  const std::uint32_t violations = in->U32();
  for (std::uint32_t i = 0; i < violations && in->ok(); ++i) {
    f.violations.push_back(in->Str());
  }
  return in->ok() && in->AtEnd();
}

// --- Journal reading --------------------------------------------------------

namespace {

void EncodeHeader(const JournalHeader& h, SnapshotWriter* w) {
  w->U8(kHeaderFrame);
  w->U32(h.version);
  w->U64(h.grid_fingerprint);
  w->U32(h.jobs);
  w->Str(h.label);
}

void EncodeRecord(const JournalRecord& r, SnapshotWriter* w) {
  w->U8(kRecordFrame);
  w->U32(r.slot);
  w->U64(r.config_fingerprint);
  w->Bool(r.ok);
  w->Bool(r.quarantined);
  w->U32(r.attempts);
  w->Str(r.error);
  if (r.ok) {
    // Length-prefixed like a string, so a reader can bound the result before
    // parsing it.
    SnapshotWriter result;
    SerializeResult(r.result, &result);
    w->U32(static_cast<std::uint32_t>(result.size()));
    w->Bytes(result.data(), result.size());
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
    const std::uint8_t type = reader.U8();
    if (type == kHeaderFrame) {
      JournalSegment segment;
      segment.header.version = reader.U32();
      segment.header.grid_fingerprint = reader.U64();
      segment.header.jobs = reader.U32();
      segment.header.label = reader.Str();
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
        record.slot = reader.U32();
        record.config_fingerprint = reader.U64();
        record.ok = reader.Bool();
        record.quarantined = reader.Bool();
        record.attempts = reader.U32();
        record.error = reader.Str();
        bool valid = reader.ok();
        if (valid && record.ok) {
          const std::string result_bytes = reader.Str();
          SnapshotReader result_reader(result_bytes.data(), result_bytes.size());
          valid = reader.ok() && DeserializeResult(&result_reader, &record.result);
        }
        if (!valid) {
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
  EncodeHeader(header, &payload);
  return AppendFrame(payload, error);
}

bool JournalWriter::AppendRecord(const JournalRecord& record, std::string* error) {
  SnapshotWriter payload;
  EncodeRecord(record, &payload);
  return AppendFrame(payload, error);
}

}  // namespace dcs
