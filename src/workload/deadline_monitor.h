// Inelastic-constraint tracking.
//
// The paper evaluates policies under the assumption that applications have
// *inelastic* performance constraints: "we assumed the applications had no
// way to accommodate 'missed deadlines'" and "the user should see no visible
// changes induced by the scheduling algorithms".  Each application reports
// its natural deadline events here — MPEG frame display times, audio buffer
// refills, speech-synthesis hand-offs, interactive response times — and the
// experiment layer judges a policy unacceptable if any stream misses.
//
// Tolerance semantics: `tolerance` extends the deadline.  An event is a miss
// if `completed > deadline + tolerance`, and lateness is measured from that
// same extended deadline — `max(completed - (deadline + tolerance), 0)` — so
// a tolerated event contributes neither a miss nor lateness.  (Earlier
// revisions measured lateness from the bare `deadline`, which made
// `worst_lateness` nonzero for streams that never missed; the two thresholds
// are now consistent.)
//
// For the open-loop server workloads the monitor also tracks the full
// response-time distribution: ReportRequest() records latency (completion
// minus arrival) into a per-stream log-bucketed histogram, giving
// p50/p95/p99/p999 through the metrics pipeline without per-request
// artifacts.

#ifndef SRC_WORKLOAD_DEADLINE_MONITOR_H_
#define SRC_WORKLOAD_DEADLINE_MONITOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

class DeadlineMonitor {
 public:
  struct StreamStats {
    std::int64_t total = 0;
    std::int64_t missed = 0;
    SimTime worst_lateness;     // max(completed - (deadline + tolerance), 0)
    SimTime total_lateness;     // sum of positive lateness past the tolerance
    // Worst overrun past the *bare* deadline, tolerance ignored:
    // max(completed - deadline, 0).  Nonzero overrun with zero misses means
    // events are landing inside the tolerance window — the margin-erosion
    // signal the ablation suite watches.
    SimTime worst_overrun;
    // Response-time distribution in microseconds, filled by ReportRequest()
    // (empty for streams that only report bare deadline events).
    LogHistogram latency_us;
    // Requests the admission gate turned away (never queued, so they
    // contribute neither a miss nor a latency sample); `shed` is the subset
    // rejected by the degraded brownout mode rather than the
    // schedulability test.  A stream can be rejected-only: its `total`
    // stays 0 and every percentile/rate below must degrade to 0, not NaN.
    std::int64_t rejected = 0;
    std::int64_t shed = 0;
    double MissRate() const {
      return total == 0 ? 0.0 : static_cast<double>(missed) / static_cast<double>(total);
    }
    // Rejected fraction of everything offered (admitted + rejected).
    double RejectRate() const {
      const std::int64_t offered = total + rejected;
      return offered == 0 ? 0.0 : static_cast<double>(rejected) / static_cast<double>(offered);
    }
  };

  // A stream's handle.  Each workload interns its stream names once, when
  // it is built, and reports through the handles, so a report neither builds
  // a string nor looks a name up.  A handle stays valid for the monitor's
  // lifetime: Clear() and snapshot loads keep every interned stream where it
  // is.
  class Stream {
   public:
    Stream() = default;

   private:
    friend class DeadlineMonitor;
    explicit Stream(std::uint32_t index) : index_(index) {}
    std::uint32_t index_ = 0;
  };

  // The handle of stream `name`, added if new.  An interned stream shows in
  // Streams(), the totals and the image only once it has reported.
  Stream Intern(std::string_view name);

  // Reports one deadline event on `stream`.  The event is a miss if
  // `completed` is later than `deadline + tolerance`, and its lateness is
  // measured from the same `deadline + tolerance` threshold.
  void Report(Stream stream, SimTime deadline, SimTime completed,
              SimTime tolerance = SimTime::Zero());

  // Reports one open-loop request on `stream`: the deadline is
  // `arrival + slo`, and the request's latency (`completed - arrival`, in
  // microseconds) is recorded into the stream's latency histogram.
  void ReportRequest(Stream stream, SimTime arrival, SimTime slo, SimTime completed,
                     SimTime tolerance = SimTime::Zero());

  // Reports one request the admission gate refused on `stream` (`shed` when
  // the degraded brownout mode, not the schedulability test, rejected it).
  // Rejected requests never count as deadline events or misses.
  void ReportRejected(Stream stream, bool shed = false);

  // Stats for one stream (zeroes if the stream never reported).
  StreamStats Stats(const std::string& stream) const;

  // All stream names that reported at least one event (or rejection), in
  // name order.
  std::vector<std::string> Streams() const;

  // Aggregates across every stream.
  std::int64_t TotalEvents() const;
  std::int64_t TotalMissed() const;
  std::int64_t TotalRejected() const;
  std::int64_t TotalShed() const;
  SimTime WorstLateness() const;
  SimTime WorstOverrun() const;
  bool AnyMissed() const { return TotalMissed() > 0; }

  // Forgets every report; interned handles stay valid.
  void Clear();

  // Device-snapshot support (src/sim/snapshot.h).  The image lists the
  // streams that reported, in name order, each name stored in full: a
  // fresh monitor interns the names it has not seen.  Every other load
  // finds each name among the interned streams and restores its stats in
  // place, without allocating (fleet device cycling).
  void Snapshot(SnapshotIo& io);

 private:
  struct Entry {
    StreamStats stats;
    bool reported = false;  // since construction, the last Clear() or load
  };
  using Index = std::map<std::string, std::uint32_t, std::less<>>;

  Index::iterator FindOrAdd(std::string_view name);

  // Stream name -> its entry in entries_, in name order (the order of
  // Streams() and of the image).  Entries are never removed, so a handle's
  // index never moves.
  Index index_;
  std::vector<Entry> entries_;
  // A loaded stream name, reused so in-place loads do not allocate.
  std::string name_scratch_;
};

}  // namespace dcs

#endif  // SRC_WORKLOAD_DEADLINE_MONITOR_H_
