// Core-voltage regulator model for the modified Itsy v1.5.
//
// Compaq WRL modified the study's Itsy units so the SA-1100 core rail can be
// switched between 1.5 V (specified) and 1.23 V (below spec but safe at
// moderate clock speeds).  The paper measured (section 5.4):
//   * dropping 1.5 -> 1.23 V takes ~250 us — the rail decays slowly because
//     of the external decoupling capacitors, briefly undershoots 1.23 V, then
//     settles;
//   * raising 1.23 -> 1.5 V is effectively instantaneous;
//   * 1.23 V is only safe up to 162.2 MHz (clock step 7).
//
// The regulator tracks the settling interval; the kernel must not raise the
// clock above the 1.23 V-safe ceiling until the rail reports 1.5 V stable.

#ifndef SRC_HW_VOLTAGE_REGULATOR_H_
#define SRC_HW_VOLTAGE_REGULATOR_H_

#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

// The two selectable core voltages.
enum class CoreVoltage {
  kHigh,  // 1.5 V — manufacturer specification, required above 162.2 MHz.
  kLow,   // 1.23 V — below spec; safe at steps 0..7 (<= 162.2 MHz).
};

// Volts for a rail setting.
double VoltageVolts(CoreVoltage v);

// Highest clock step that is safe at 1.23 V (162.2 MHz).
inline constexpr int kMaxStepAtLowVoltage = 7;

// Measured settle time for a downward transition.
inline constexpr SimTime kVoltageDownSettle = SimTime::Micros(250);

class VoltageRegulator {
 public:
  // Starts at 1.5 V, stable.
  VoltageRegulator() = default;

  // The currently selected target rail.
  CoreVoltage target() const { return target_; }

  // True once the rail has settled on the target.  Downward transitions take
  // kVoltageDownSettle; upward transitions are instantaneous.
  bool IsStable(SimTime now) const { return now >= settle_until_; }

  // Instantaneous rail voltage.  During a downward settle the rail decays
  // exponentially from 1.5 V, undershoots slightly, then converges (this only
  // matters for the switch-overhead bench that plots the settle curve).
  double VoltsAt(SimTime now) const;

  // Requests a rail change; returns the time at which the rail is stable at
  // the new setting.  Re-requesting the current target is a no-op that
  // returns the existing settle time.  `down_settle` is the settle interval
  // for a downward transition (fault injection passes an overrunning one).
  SimTime Request(CoreVoltage v, SimTime now, SimTime down_settle = kVoltageDownSettle);

  // Number of transitions requested (excluding no-ops), for overhead
  // accounting.
  int transitions() const { return transitions_; }

  // True if running `step` at the *target* voltage is within spec.
  static bool StepAllowedAt(CoreVoltage v, int step);

  // Device-snapshot support (src/sim/snapshot.h).
  void Snapshot(SnapshotIo& io) {
    io.Enum(target_, CoreVoltage::kLow);
    io(settle_until_, transition_start_);
    io.Enum(previous_, CoreVoltage::kLow);
    io.As<std::uint32_t>(transitions_);
  }

 private:
  CoreVoltage target_ = CoreVoltage::kHigh;
  SimTime settle_until_;        // rail stable at/after this time
  SimTime transition_start_;    // when the in-flight transition began
  CoreVoltage previous_ = CoreVoltage::kHigh;
  int transitions_ = 0;
};

}  // namespace dcs

#endif  // SRC_HW_VOLTAGE_REGULATOR_H_
