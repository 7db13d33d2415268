// Piecewise-constant record of instantaneous system power.
//
// Every hardware state change (busy/nap/stall, clock step, voltage,
// peripheral activity) appends a segment.  The tape is the ground truth the
// DAQ samples from, and also supports exact energy integration so tests can
// verify the sampled estimate against the analytic value.
//
// Alongside the segments the tape keeps a cumulative-energy prefix array:
// prefix_[i] is the energy from the first segment's start to segment i's
// start, accumulated left-to-right in append order.  A windowed energy query
// then costs two binary searches plus O(1) arithmetic instead of a walk over
// every segment — and because the prefix is built with exactly the additions
// the old full scan performed, from-the-start windows (the tab2/ledger
// pattern) produce bitwise-identical joules.  Windows that open mid-segment
// fall back to a scan bounded to the overlapped segments, again with the
// original expressions, so those too are bitwise-unchanged.
//
// A caller that only ever reads energy from the tape's start up to now (a
// fleet device's total) drops the history: the tape then keeps just the open
// segment, the one before it (a same-instant collapse can re-merge with it)
// and their prefixes.  The prefix grows by the same expression either way,
// so EnergyJoules(0, now) returns the same bits.  A query that reaches back
// past the retained segments throws instead of answering from a partial
// record.

#ifndef SRC_HW_POWER_TAPE_H_
#define SRC_HW_POWER_TAPE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/arena.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

class PowerTape {
 public:
  struct Segment {
    SimTime start;
    double watts = 0.0;
  };
  using SegmentVector = ArenaVector<Segment>;

  // Heap-backed tape (the default).  Binding an Arena routes segment and
  // prefix storage through it; copies of an arena-backed tape (ObsCapture)
  // are heap-backed automatically (see ArenaAllocator).
  PowerTape() = default;
  explicit PowerTape(Arena* arena)
      : segments_(ArenaAllocator<Segment>(arena)),
        prefix_(ArenaAllocator<double>(arena)) {}

  // Declares that from `now` onward the system draws `watts`.  Consecutive
  // equal-power segments are merged; `now` must be >= the last segment start.
  void Set(SimTime now, double watts);

  // Instantaneous power at `t` (0 before the first segment).  Throws
  // std::logic_error for a `t` before the segments a history-free tape kept.
  double WattsAt(SimTime t) const;

  // Exact energy in joules over [begin, end), extending the last segment to
  // `end`.  Throws std::logic_error when a history-free tape no longer holds
  // what the window needs: a window opening inside the dropped segments, or
  // one from the start that closes inside them.
  double EnergyJoules(SimTime begin, SimTime end) const;

  // Mean power over [begin, end).
  double AverageWatts(SimTime begin, SimTime end) const;

  // Keeps only the last two segments from now on (see the file comment).
  // Call on a tape nothing will read a window from.
  void DropHistory();
  bool keeps_history() const { return history_; }

  // The retained segments: all of them, or a history-free tape's last two.
  const SegmentVector& segments() const { return segments_; }
  // Segments recorded so far, dropped ones included.
  std::size_t size() const { return dropped_ + segments_.size(); }
  bool empty() const { return segments_.empty(); }

  // Device-snapshot support (src/sim/snapshot.h): the segment and prefix
  // arrays as raw POD spans — the bulk of a device image, and the part the
  // "contiguous image" clone path memcpys.  A load restores in place:
  // resizing within the reserved capacity never allocates, so a warmed fleet
  // worker reloads tapes heap-free.  A history-free tape also saves how many
  // segments it dropped and where the first one started; an image taken in
  // the other mode fails the load.
  void Snapshot(SnapshotIo& io) {
    std::size_t n = segments_.size();
    io.Count(n, history_ ? SnapshotIo::kNoBound : 2, sizeof(Segment) + sizeof(double));
    if (io.loading()) {
      segments_.resize(n);
      prefix_.resize(n);
    }
    io.Bytes(segments_.data(), n * sizeof(Segment));
    io.Bytes(prefix_.data(), n * sizeof(double));
    io.Expect(history_);
    if (io.loading()) {
      dropped_ = 0;
      origin_ = n > 0 ? segments_.front().start : SimTime::Zero();
    }
    if (!history_) {
      io(dropped_, origin_);
    }
  }

 private:
  SegmentVector segments_;
  // prefix_[i]: joules accumulated from the first segment's start to
  // segments_[i].start (so a full tape's prefix_[0] == 0).  Always
  // segments_.size() long.
  ArenaVector<double> prefix_;
  bool history_ = true;
  // Segments a history-free tape shifted out, and the first segment's start
  // (the tape's origin, which a full tape also holds as segments_[0].start).
  std::uint64_t dropped_ = 0;
  SimTime origin_;
};

}  // namespace dcs

#endif  // SRC_HW_POWER_TAPE_H_
