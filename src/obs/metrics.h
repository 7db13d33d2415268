// Metrics registry: named counters, gauges and log-scale histograms.
//
// The observability layer's cheapest tier.  Producers (kernel, hardware,
// governors, the experiment harness) hold plain pointers to the instruments
// they update; when no registry is bound the pointers stay null and the hot
// paths pay a single branch.  Every instrument update is inline — the
// registry itself is only touched at bind time (name lookup) and at report
// time (JSON / text rendering, in metrics.cc).
//
// All values derive from simulated state, never wall-clock time, so a
// registry's rendered output is byte-identical across sweep thread counts.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/sim/snapshot.h"

namespace dcs {

// Monotone event count.
class MetricsCounter {
 public:
  void Inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

  // Snapshot image (device images and the campaign journal).
  void Snapshot(SnapshotIo& io) { io(value_); }

 private:
  std::uint64_t value_ = 0;
};

// Last-written value.  Merging registries (e.g. across the runs of a sweep)
// averages gauges, so value() reports the mean of the merged samples.
class MetricsGauge {
 public:
  void Set(double v) {
    sum_ = v;
    samples_ = 1;
  }
  double value() const { return samples_ == 0 ? 0.0 : sum_ / static_cast<double>(samples_); }
  double sum() const { return sum_; }
  std::uint64_t samples() const { return samples_; }

  void MergeFrom(const MetricsGauge& other) {
    sum_ += other.sum_;
    samples_ += other.samples_;
  }

  // Snapshot image (device images and the campaign journal).
  void Snapshot(SnapshotIo& io) { io(sum_, samples_); }

 private:
  double sum_ = 0.0;
  std::uint64_t samples_ = 0;
};

// Power-of-two log-scale histogram: bucket 0 counts observations < 1,
// bucket i >= 1 counts observations in [2^(i-1), 2^i).  Suited to latency
// distributions spanning many decades (a 6 us tick next to a 200 us relock
// stall next to a 10 ms quantum).
class LogHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(double v) {
    ++buckets_[static_cast<std::size_t>(BucketOf(v))];
    ++count_;
    sum_ += v;
    min_ = count_ == 1 ? v : std::min(min_, v);
    max_ = count_ == 1 ? v : std::max(max_, v);
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }

  // Upper bound (exclusive) of the bucket the q-quantile falls in; 0 with no
  // observations.  Coarse by design — within a factor of two.
  double ApproxQuantile(double q) const;

  // Bucket index for a value: i for v in [2^(i-1), 2^i), the last bucket
  // for everything from 2^62 up.  Negatives, sub-1 values, NaN and the
  // infinities land in bucket 0 (+inf there because glibc's frexp reports
  // its exponent as 0, which the buckets have always followed).  The
  // exponent comes from v's bits: frexp's exp is the biased exponent less
  // 1022 for a v >= 1, which is normal.
  static int BucketOf(double v) {
    if (!(v >= 1.0)) {
      return 0;
    }
    const int biased = static_cast<int>(std::bit_cast<std::uint64_t>(v) >> 52);
    if (biased == 0x7ff) {
      return 0;
    }
    return std::min(biased - 1022, kBuckets - 1);
  }
  // Exclusive upper bound of bucket i (2^i; bucket 0 is [.., 1)).
  static double BucketUpperBound(int i) { return std::ldexp(1.0, i); }

  void MergeFrom(const LogHistogram& other);

  // Device-snapshot image: every bucket, then the summary.
  void Snapshot(SnapshotIo& io) { io(buckets_, count_, sum_, min_, max_); }

  // Reinstates a serialized histogram exactly (campaign journal replay);
  // regular producers use Observe().
  void Restore(const std::array<std::uint64_t, kBuckets>& buckets, std::uint64_t count,
               double sum, double min, double max) {
    buckets_ = buckets;
    count_ = count;
    sum_ = sum;
    min_ = min;
    max_ = max;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Name -> instrument map.  Lookup creates on first use; names are reported
// in sorted order so rendered output is deterministic.
class MetricsRegistry {
 public:
  MetricsCounter& Counter(const std::string& name) { return counters_[name]; }
  MetricsGauge& Gauge(const std::string& name) { return gauges_[name]; }
  LogHistogram& Histogram(const std::string& name) { return histograms_[name]; }

  const MetricsCounter* FindCounter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
  }
  const MetricsGauge* FindGauge(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : &it->second;
  }
  const LogHistogram* FindHistogram(const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  const std::map<std::string, MetricsCounter>& counters() const { return counters_; }
  const std::map<std::string, MetricsGauge>& gauges() const { return gauges_; }
  const std::map<std::string, LogHistogram>& histograms() const { return histograms_; }

  bool empty() const { return counters_.empty() && gauges_.empty() && histograms_.empty(); }

  // Folds `other` in: counters and histograms add, gauges average.
  void MergeFrom(const MetricsRegistry& other);

  // Renders every instrument as one deterministic JSON object:
  //   {"counters":{...},"gauges":{...},"histograms":{...}}
  // Histograms render count/sum/min/max/mean/p50/p95/p99/p999 plus the
  // non-empty buckets as [upper_bound, count] pairs.
  void WriteJson(std::ostream& os) const;

  // Device-snapshot image (src/sim/snapshot.h).  Positional (SnapshotIo::
  // Keyed): instruments in map (sorted-name) order with a name hash per
  // entry.  The key set is fixed at stack-build time (producers resolve
  // their instruments at bind/install), so save and load always see the
  // same sequence — and restoring by position instead of by name keeps the
  // load path free of string allocations for fleet device cycling.
  void Snapshot(SnapshotIo& io) {
    io.Tag(kSnapshotTag);
    if (io.Keyed(counters_) && io.Keyed(gauges_)) {
      io.Keyed(histograms_);
    }
  }

 private:
  static constexpr std::uint32_t kSnapshotTag = 0x4D455452u;  // "METR"

  std::map<std::string, MetricsCounter> counters_;
  std::map<std::string, MetricsGauge> gauges_;
  std::map<std::string, LogHistogram> histograms_;
};

// --- JSON rendering helpers (shared with the Chrome trace writer) ----------

// Shortest round-trip decimal rendering of a finite double ("0.25", "206.4",
// "1e-09"); non-finite values render as 0 to keep the JSON valid.
std::string JsonNumber(double v);

// Contents of a JSON string literal (no surrounding quotes added).
std::string JsonEscape(const std::string& s);

}  // namespace dcs

#endif  // SRC_OBS_METRICS_H_
