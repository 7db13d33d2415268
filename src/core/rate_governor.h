// A saturation-aware rate governor: the repaired version of Figure 5's
// naive busy-cycle-averaging policy.
//
// The paper's Figure 5(b) shows why averaging busy *cycles* fails: once the
// clock is slow and the CPU saturated, observed busy-MHz can never exceed
// the current frequency, so the policy can never justify speeding up — a
// feedback ceiling.  The repair is to treat a saturated quantum as
// "demand unknown, at least this much" and escape upward instead of
// trusting the average.  When no recent quantum saturated, the observed
// busy-MHz really is the demand, and the slowest step covering it (plus
// headroom) is chosen — automatically synthesising the per-interval rate
// requirement the paper wished applications would announce.

#ifndef SRC_CORE_RATE_GOVERNOR_H_
#define SRC_CORE_RATE_GOVERNOR_H_

#include <string>

#include "src/hw/clock_table.h"
#include "src/kernel/policy.h"
#include "src/sim/ring.h"

namespace dcs {

struct RateGovernorConfig {
  // Averaging window in quanta.
  int window = 4;
  // Multiplier on the observed busy rate when picking a step.
  double headroom = 1.15;
  // A quantum busier than this counts as saturated.
  double saturation_threshold = 0.98;
  // On saturation: jump this many steps up (ClockTable::MaxStep() + 1 or
  // more means peg to the top).
  int escape_steps = 100;
  int min_step = ClockTable::MinStep();
  int max_step = ClockTable::MaxStep();
};

class SaturationAwareGovernor final : public ClockPolicy {
 public:
  explicit SaturationAwareGovernor(const RateGovernorConfig& config = {});

  const char* Name() const override { return name_.c_str(); }
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override;
  void Snapshot(SnapshotIo& io) override {
    io.Window(busy_mhz_, static_cast<std::size_t>(config_.window));
    io(sum_);
  }

  double AverageBusyMhz() const;

 private:
  RateGovernorConfig config_;
  std::string name_;
  Ring<double> busy_mhz_;
  double sum_ = 0.0;
};

}  // namespace dcs

#endif  // SRC_CORE_RATE_GOVERNOR_H_
