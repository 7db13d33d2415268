// Constant-speed "policy": pins the clock (and optionally the rail) once and
// never touches it again.  Used for the Table 2 baseline rows
// ("Constant Speed @ 206.4 MHz, 1.5 Volts", etc.) and for per-step sweeps
// like Figure 9.

#ifndef SRC_CORE_FIXED_POLICY_H_
#define SRC_CORE_FIXED_POLICY_H_

#include <string>

#include "src/kernel/policy.h"

namespace dcs {

class FixedPolicy final : public ClockPolicy {
 public:
  FixedPolicy(int step, CoreVoltage voltage = CoreVoltage::kHigh);

  const char* Name() const override { return name_.c_str(); }
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override;
  void Snapshot(SnapshotIo& io) override { io(applied_); }

  int step() const { return step_; }
  CoreVoltage voltage() const { return voltage_; }

 private:
  int step_;
  CoreVoltage voltage_;
  std::string name_;
  bool applied_ = false;
};

}  // namespace dcs

#endif  // SRC_CORE_FIXED_POLICY_H_
