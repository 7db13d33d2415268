// The naive busy-cycle-averaging policy of the paper's Figure 5.
//
// "One simple policy would determine the number of 'busy' instructions
// during the previous N 10ms scheduling quanta and predict that activity in
// the next quanta would have the same percentage of busy cycles.  The clock
// speed would then be set to insure enough busy cycles.  This policy sounds
// simple, but it results in exceptionally poor responsiveness."
//
// We track, per quantum, the busy *megahertz-equivalents* (utilization times
// the clock frequency that was in effect) and average over the last N
// quanta, then pick the slowest step fast enough to cover that average.  The
// asymmetry the paper illustrates: when going idle, the averaged busy cycles
// collapse quickly because idle quanta contribute zeros; when speeding up,
// busy cycles can only grow as fast as the (still slow) clock permits, so
// the policy crawls upward — Figure 5(b).

#ifndef SRC_CORE_CYCLE_COUNT_GOVERNOR_H_
#define SRC_CORE_CYCLE_COUNT_GOVERNOR_H_

#include <string>

#include "src/hw/clock_table.h"
#include "src/kernel/policy.h"
#include "src/sim/ring.h"

namespace dcs {

class CycleCountGovernor final : public ClockPolicy {
 public:
  // Averages busy cycles over the last `window` quanta (the paper's worked
  // example uses 4).  `headroom` multiplies the average before choosing a
  // step, so 1.0 targets exactly 100% utilization.
  explicit CycleCountGovernor(int window = 4, double headroom = 1.0);

  const char* Name() const override { return name_.c_str(); }
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override;
  void Snapshot(SnapshotIo& io) override {
    io.Window(busy_mhz_, static_cast<std::size_t>(window_));
    io(sum_);
  }

  // Average busy MHz over the current window (diagnostics; this is the
  // "Avg" annotation in Figure 5).
  double AverageBusyMhz() const;

 private:
  int window_;
  double headroom_;
  std::string name_;
  Ring<double> busy_mhz_;
  double sum_ = 0.0;
};

}  // namespace dcs

#endif  // SRC_CORE_CYCLE_COUNT_GOVERNOR_H_
