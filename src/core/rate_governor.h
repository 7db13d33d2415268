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

#include <deque>
#include <string>

#include "src/hw/clock_table.h"
#include "src/kernel/policy.h"

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
  void Reset() override;
  void SaveState(SnapshotWriter* w) const override {
    w->U64(busy_mhz_.size());
    for (const double v : busy_mhz_) {
      w->F64(v);
    }
    w->F64(sum_);
  }
  void LoadState(SnapshotReader* r) override {
    const std::size_t n = r->Count(sizeof(double));
    busy_mhz_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      busy_mhz_.push_back(r->F64());
    }
    sum_ = r->F64();
  }

  double AverageBusyMhz() const;

 private:
  RateGovernorConfig config_;
  std::string name_;
  std::deque<double> busy_mhz_;
  double sum_ = 0.0;
};

}  // namespace dcs

#endif  // SRC_CORE_RATE_GOVERNOR_H_
