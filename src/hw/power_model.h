// CMOS power model for the Itsy.
//
// Instantaneous system power is the sum of
//   * processor power — a dynamic CMOS term (alpha * V^2 * f) plus a
//     voltage/frequency-independent static residue (3.3 V pad drivers, clock
//     distribution, leakage).  The static residue is why the paper measured
//     only ~15% processor-power reduction from the 1.5 -> 1.23 V drop even
//     though pure V^2 scaling predicts 33%, and why power is non-linear in
//     frequency (Martin's observation, cited in the paper);
//   * nap power — in the idle task the SA-1100 stalls its pipeline but the
//     clock tree keeps toggling, so nap power still scales with V^2 * f;
//   * peripheral rail — LCD, touchscreen, DRAM refresh, serial; constant
//     3.3 V loads unaffected by core clock or voltage scaling (the paper's
//     explanation for why system-level savings are smaller than
//     processor-level savings);
//   * audio path — DAC/amplifier, only while a workload is playing sound.
//
// Defaults are calibrated against Table 2 of the paper (60 s of MPEG):
// ~86 J at 206.4 MHz/1.5 V, ~80 J at 132.7/1.5 V, ~74 J at 132.7/1.23 V.

#ifndef SRC_HW_POWER_MODEL_H_
#define SRC_HW_POWER_MODEL_H_

#include <cstddef>

#include "src/hw/clock_table.h"
#include "src/hw/voltage_regulator.h"
#include "src/sim/fields.h"

namespace dcs {

// What the processor core is doing; each state draws different power.
enum class ExecState {
  kBusy,     // executing instructions (includes application spin loops)
  kNap,      // idle task: pipeline stalled, clocks running
  kStalled,  // PLL relock during a clock change
};

struct PowerModelParams {
  // Dynamic CMOS coefficient in mW per (V^2 * MHz).
  double core_dynamic_mw_per_v2mhz = 1.086;
  // Static processor residue while busy (pads, clock tree, leakage), mW.
  double core_static_busy_mw = 286.0;
  // Nap-mode dynamic coefficient (clock tree only), mW per (V^2 * MHz).
  double nap_mw_per_v2mhz = 0.25;
  // Flat draw during the 200 us PLL relock stall, mW.
  double stall_mw = 150.0;
  // Peripheral rail with the display on, mW.
  double peripherals_mw = 620.0;
  // Additional draw while audio is playing, mW.
  double audio_mw = 124.0;
  // Peripheral rail with the display off (battery-lifetime experiments), mW.
  double peripherals_display_off_mw = 80.0;
  // Bus-clock-driven peripheral power (LCD DMA, DRAM interface) in mW per
  // MHz of core clock.  Zero in the Table 2 calibration; the battery
  // lifetime experiment (section 2.1) uses a configuration where this term
  // dominates, making idle power roughly proportional to clock frequency.
  double peripherals_bus_mw_per_mhz = 0.0;
};

// Every member, in declaration order (src/sim/fields.h).
constexpr auto Fields(const PowerModelParams*) {
  return std::tuple{&PowerModelParams::core_dynamic_mw_per_v2mhz,
                    &PowerModelParams::core_static_busy_mw, &PowerModelParams::nap_mw_per_v2mhz,
                    &PowerModelParams::stall_mw, &PowerModelParams::peripherals_mw,
                    &PowerModelParams::audio_mw, &PowerModelParams::peripherals_display_off_mw,
                    &PowerModelParams::peripherals_bus_mw_per_mhz};
}
static_assert(ListsEveryField<PowerModelParams>());

// Peripheral activity toggled by workloads.
struct PeripheralState {
  bool display_on = true;
  bool audio_on = false;

  bool operator==(const PeripheralState&) const = default;
};

class PowerModel {
 public:
  PowerModel() = default;
  explicit PowerModel(const PowerModelParams& params) : params_(params) {}

  const PowerModelParams& params() const { return params_; }

  // Processor-only power in watts at `step`, rail voltage `volts`, in `state`.
  double ProcessorWatts(ExecState state, int step, double volts) const;

  // Whole-system power in watts.
  double SystemWatts(ExecState state, int step, double volts,
                     const PeripheralState& peripherals) const;

  // Batched SystemWatts over parallel arrays: out[i] = SystemWatts(state,
  // steps[i], volts[i], peripherals).  Each element evaluates the exact
  // scalar expression (same operations, same association, so the same
  // IEEE-754 result bit for bit); the state and peripheral selects are
  // hoisted out of the loop so the per-element body is a tight polynomial
  // the auto-vectoriser can chew on.  Used by the oracle's energy-model
  // table construction (src/core/oracle.cc).
  void SystemWattsBatch(ExecState state, const int* steps, const double* volts,
                        std::size_t n, const PeripheralState& peripherals,
                        double* out) const;

 private:
  PowerModelParams params_;
};

}  // namespace dcs

#endif  // SRC_HW_POWER_MODEL_H_
