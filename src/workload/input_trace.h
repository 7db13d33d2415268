// Timestamped input-event traces.
//
// "To capture repeatable behavior for the interactive applications, we used
// a tracing mechanism that recorded timestamped input events and then
// allowed us to replay those events with millisecond accuracy."
//
// The interactive workloads (Web, Chess, TalkingEditor) are driven by an
// InputTrace: a time-ordered list of user events.  Traces can be generated
// from scripted scenario builders (with a seed for jitter), saved to and
// loaded from CSV, and replayed with sub-millisecond timing noise to model
// the replay hardware's accuracy.

#ifndef SRC_WORKLOAD_INPUT_TRACE_H_
#define SRC_WORKLOAD_INPUT_TRACE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace dcs {

struct InputEvent {
  SimTime at;
  // Event kind, e.g. "tap", "scroll", "load", "open_dialog", "move".
  std::string kind;
  // Kind-specific magnitude (e.g. page weight multiplier); 1.0 by default.
  double magnitude = 1.0;

  bool operator==(const InputEvent&) const = default;
};

class InputTrace {
 public:
  InputTrace() = default;

  // Appends an event.  Throws std::invalid_argument for a negative time or
  // one before the previous event's.
  void Record(SimTime at, std::string kind, double magnitude = 1.0);

  const std::vector<InputEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  // Time of the last event (zero for an empty trace).
  SimTime Duration() const;

  // Returns a copy with every timestamp perturbed by up to +/- `jitter`
  // (uniform) — models the millisecond replay accuracy of the paper's replay
  // rig.  Jittered times are clamped at zero (an event near t=0 never goes
  // negative) and at the previous emitted time, so ordering is preserved and
  // equal-time events keep their recorded order.  Throws
  // std::invalid_argument on negative jitter.
  InputTrace WithReplayJitter(Rng& rng, SimTime jitter = SimTime::Micros(500)) const;

  // CSV round-trip, schema v2: a strict "time_us,kind,magnitude" header,
  // then one event per row.  Times are microseconds with up to three
  // fractional digits (nanosecond-exact); magnitudes use shortest
  // round-trip precision; a kind containing a comma/quote/newline is
  // CSV-quoted ("" escapes a quote).  Blank lines and `#` comments are
  // skipped.  ReadCsv throws std::invalid_argument, naming the line, on a
  // missing/mismatched header, malformed row, unparsable or negative
  // number, or out-of-order timestamp — a recorded trace is an input to a
  // deterministic experiment, so silent row-dropping is worse than failing.
  void WriteCsv(std::ostream& os) const;
  static InputTrace ReadCsv(std::istream& is);

 private:
  std::vector<InputEvent> events_;
};

}  // namespace dcs

#endif  // SRC_WORKLOAD_INPUT_TRACE_H_
