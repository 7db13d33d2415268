// Time-series recording: every experiment and bench captures (time, value)
// samples — utilization per quantum, clock frequency, instantaneous power —
// through this sink, then renders them as CSV or ASCII plots.

#ifndef SRC_SIM_TRACE_SINK_H_
#define SRC_SIM_TRACE_SINK_H_

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

// One sample of a recorded series.
struct TracePoint {
  SimTime at;
  double value = 0.0;

  bool operator==(const TracePoint&) const = default;
};

// A single named (time, value) series.  Samples must be appended in
// non-decreasing time order (enforced).
class TraceSeries {
 public:
  explicit TraceSeries(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const std::vector<TracePoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }

  // Appends a sample; `at` must be >= the previous sample's time.
  void Append(SimTime at, double value);

  // Pre-sizes the backing store (capacity only, no semantic effect).  Hot
  // recording loops reserve their expected sample count up front so Append
  // never reallocates mid-run.
  void Reserve(std::size_t points) { points_.reserve(points); }

  // Releases a reservation the series did not fill: one less than half full
  // is copied to an exact fit, and a fuller one, whose spare capacity is
  // less than its points, stays where it is (no semantic effect).
  void Trim() {
    if (points_.capacity() > 2 * points_.size()) {
      points_.shrink_to_fit();
    }
  }

  // Device-snapshot image (src/sim/snapshot.h): the points as one raw POD
  // span.  A load restores in place — shrinking back to the snapshot length
  // reuses the reserved capacity, so fleet device cycling never reallocates
  // a series.
  // The campaign journal writes the count as a U32.
  template <typename CountT = std::uint64_t>
  void Snapshot(SnapshotIo& io) {
    io.Window<CountT>(points_);
  }

 private:
  std::string name_;
  std::vector<TracePoint> points_;
};

// A named collection of series.
class TraceSink {
 public:
  // Returns the series with `name`, creating it on first use.
  TraceSeries& Series(const std::string& name);

  // Read-only lookup; nullptr if the series does not exist.
  const TraceSeries* Find(const std::string& name) const;

  // All series names, sorted.
  std::vector<std::string> Names() const;

  // Writes one series as two-column CSV ("time_us,value").
  void WriteCsv(const std::string& name, std::ostream& os) const;

  // Trims every series (TraceSeries::Trim).  A finished run's sink keeps its
  // points, not the tick path's worst-case reservation.
  void Trim() {
    for (auto& [name, series] : series_) {
      series.Trim();
    }
  }

  // Device-snapshot image: positional over the sorted series map, each
  // entry verified by name hash (the series set is fixed once the kernel
  // has bound and reserved its traces).
  void Snapshot(SnapshotIo& io) { io.Keyed(series_); }

 private:
  std::map<std::string, TraceSeries> series_;
};

}  // namespace dcs

#endif  // SRC_SIM_TRACE_SINK_H_
