// Cross-layer invariant checking for fault-injection runs.
//
// Fault plans deliberately push the simulator off its happy path — stuck
// clock steps, overrunning settles, brownout step-downs, jittered ticks.
// The InvariantChecker watches the properties that must survive all of it:
//
//   * simulated time is monotone;
//   * the selected clock step is always a valid clock-table index;
//   * a 1.23 V rail target never coexists with a step above the 1.23 V-safe
//     ceiling (the brownout/retry machinery must preserve rail safety);
//   * the run queue is consistent (unique pids, every queued task runnable
//     and live, the dispatched task never queued behind itself);
//   * busy/idle accounting is monotone and bounded by elapsed wall time;
//   * the power tape stays chronological;
//   * EnergyLedger attribution conserves energy against the tape integral.
//
// Check() is cheap (no allocation on the pass path) so experiments call it
// every quantum while a fault plan is active.  Violations are recorded, not
// thrown: a storm sweep reports all of them at the end.  The campaign
// journal reader (src/exp/journal.h) reuses this record-don't-throw idiom
// for structural problems in a resume journal.

#ifndef SRC_FAULT_INVARIANTS_H_
#define SRC_FAULT_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/kernel/sched_log.h"
#include "src/sim/simulator.h"
#include "src/sim/snapshot.h"

namespace dcs {

class InvariantChecker {
 public:
  // At most this many violation messages are stored (all are counted).
  static constexpr std::size_t kMaxStoredViolations = 32;
  // Relative tolerance for energy conservation, matching the ledger tests.
  static constexpr double kEnergyTolerance = 1e-9;

  InvariantChecker(const Simulator& sim, const Itsy& itsy, const Kernel& kernel)
      : sim_(sim), itsy_(itsy), kernel_(kernel) {}
  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // Runs every structural invariant once at the current sim time.
  void Check();

  // Verifies attributed + unattributed energy matches the tape integral over
  // [begin, end) to kEnergyTolerance (relative).  `sched` is a chronological
  // SchedLog snapshot.
  void CheckEnergyConservation(const std::vector<SchedLogEntry>& sched, SimTime begin,
                               SimTime end);

  std::uint64_t checks() const { return checks_; }
  std::uint64_t violation_count() const { return violation_count_; }
  const std::vector<std::string>& violations() const { return violations_; }

  // Device-snapshot support (src/sim/snapshot.h).  The watched components
  // are reference-bound at construction; only the checker's own history
  // is in the image.  Violation strings allocate on load, but a clean run
  // (the fleet steady state) carries none.  Each is a U64 length and at
  // most 512 bytes.
  void Snapshot(SnapshotIo& io) {
    io(checks_, violation_count_);
    io.Window(violations_, SnapshotIo::kNoBound, sizeof(std::uint64_t),
              [&io](std::string& v) { io.Window(v, 512); });
    io(has_last_, last_now_, last_busy_, last_idle_, last_tape_segments_, last_tape_start_);
  }

 private:
  void Fail(const std::string& message);
  void CheckTime();
  void CheckClockAndRail();
  void CheckRunQueue();
  void CheckAccounting();
  void CheckTape();

  const Simulator& sim_;
  const Itsy& itsy_;
  const Kernel& kernel_;

  std::uint64_t checks_ = 0;
  std::uint64_t violation_count_ = 0;
  std::vector<std::string> violations_;

  bool has_last_ = false;
  SimTime last_now_;
  SimTime last_busy_;
  SimTime last_idle_;
  std::size_t last_tape_segments_ = 0;
  SimTime last_tape_start_;
};

}  // namespace dcs

#endif  // SRC_FAULT_INVARIANTS_H_
