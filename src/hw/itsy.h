// The Itsy pocket computer: composition of the SA-1100 core, voltage
// regulator, power model, power tape, GPIO bank and (optionally) a battery.
//
// The kernel and workloads mutate hardware state exclusively through this
// class, which keeps the power tape consistent: every state change appends a
// piecewise-constant power segment that the DAQ later samples.

#ifndef SRC_HW_ITSY_H_
#define SRC_HW_ITSY_H_

#include <optional>

#include "src/hw/battery.h"
#include "src/hw/cpu.h"
#include "src/hw/gpio.h"
#include "src/hw/power_model.h"
#include "src/hw/power_tape.h"
#include "src/hw/voltage_regulator.h"
#include "src/obs/metrics.h"
#include "src/sim/fields.h"
#include "src/sim/simulator.h"

namespace dcs {

class FaultInjector;

struct ItsyConfig {
  PowerModelParams power;
  int initial_step = ClockTable::MaxStep();
  // PLL relock stall per clock change (ablation knob; measured: 200 us).
  SimTime clock_switch_stall = kClockSwitchStall;
  CoreVoltage initial_voltage = CoreVoltage::kHigh;
  // When set, every power segment also drains this battery model.
  std::optional<BatteryParams> battery;
};

// Every member, in declaration order (src/sim/fields.h).
constexpr auto Fields(const ItsyConfig*) {
  return std::tuple{&ItsyConfig::power, &ItsyConfig::initial_step, &ItsyConfig::clock_switch_stall,
                    &ItsyConfig::initial_voltage, &ItsyConfig::battery};
}
static_assert(ListsEveryField<ItsyConfig>());

class Itsy {
 public:
  // `arena`, when bound, backs the power tape's per-run segment storage; it
  // must outlive the Itsy.  ObsCapture copies of the tape are heap-backed
  // regardless (see ArenaAllocator).
  Itsy(Simulator& sim, const ItsyConfig& config = {}, Arena* arena = nullptr);
  Itsy(const Itsy&) = delete;
  Itsy& operator=(const Itsy&) = delete;

  // --- Clock and voltage -------------------------------------------------
  int step() const { return cpu_.step(); }
  double frequency_mhz() const { return cpu_.frequency_mhz(); }
  CoreVoltage voltage() const { return regulator_.target(); }

  // Initiates a clock change; the CPU stalls until the returned time.  If
  // `new_step` is unsafe at the current rail, the rail is raised first
  // (instantaneous).  Asking for the current step is a no-op.  Under fault
  // injection the transition may fail: the stall is still paid but the step
  // sticks, and last_clock_change_failed() reports it so the kernel can
  // retry with backoff.
  SimTime SetClockStep(int new_step);
  bool last_clock_change_failed() const { return last_clock_change_failed_; }

  // Requests a rail change.  Refused (returns false) when the current step is
  // too fast for the requested rail.
  bool SetVoltage(CoreVoltage v);

  // --- Execution state (driven by the kernel) ----------------------------
  ExecState exec_state() const { return cpu_.state(); }
  void SetExecState(ExecState state);
  bool Stalled() const { return cpu_.Stalled(sim_.Now()); }
  SimTime stall_until() const { return cpu_.stall_until(); }

  // --- Peripherals (driven by workloads) ----------------------------------
  void SetAudio(bool on);
  void SetDisplay(bool on);
  const PeripheralState& peripherals() const { return peripherals_; }

  // --- Power --------------------------------------------------------------
  double CurrentSystemWatts() const;
  const PowerTape& tape() const { return tape_; }
  // For a device whose caller reads only the tape's running total
  // (PowerTape::DropHistory).  Call before anything reads a window.
  void DropTapeHistory() { tape_.DropHistory(); }
  const PowerModel& power_model() const { return power_model_; }

  // --- Components ---------------------------------------------------------
  // Integrates battery drain up to the current time.  Drain is otherwise
  // integrated lazily at each power-state change; call this before reading
  // DepthOfDischarge() after a long constant-power stretch.
  void SyncBattery();

  Gpio& gpio() { return gpio_; }
  const Cpu& cpu() const { return cpu_; }
  const VoltageRegulator& regulator() const { return regulator_; }
  Battery* battery() { return battery_ ? &*battery_ : nullptr; }
  Simulator& sim() { return sim_; }

  // Overhead accounting (section 5.4).
  int clock_changes() const { return cpu_.clock_changes(); }
  SimTime total_stall() const { return cpu_.total_stall(); }
  int voltage_transitions() const { return regulator_.transitions(); }

  // Binds the observability registry (non-owning; null unbinds).  Hardware
  // state changes then feed hw.* counters and the relock-stall histogram.
  void BindMetrics(MetricsRegistry* metrics);

  // Binds the fault injector (non-owning; null unbinds).  Unbound, every
  // path above is byte-identical to the pre-fault simulator.
  void BindFaults(FaultInjector* faults) { faults_ = faults; }

  // Fault diagnostics: brownout-forced step-downs so far, and whether a
  // brownout event is still armed for the in-flight down-settle.
  int brownouts() const { return brownouts_; }
  bool brownout_pending() const { return brownout_event_ != kInvalidEventId; }

  // Device-snapshot image (src/sim/snapshot.h): component state, battery
  // charge, peripheral levels, and the armed brownout event.  A load fails
  // when the image and the stack disagree on whether a battery is fitted.
  void Snapshot(SnapshotIo& io);

 private:
  // Re-derives the instantaneous power and appends it to the tape; also
  // integrates the battery over the segment that just ended.
  void RefreshPower();

  // A superseding rail request aborts the armed mid-settle brownout; without
  // this the stale event would fire after the rail is back at 1.5 V and
  // wrongly drop the clock step.
  void CancelBrownout();
  void OnBrownout();

  Simulator& sim_;
  PowerModel power_model_;
  Cpu cpu_;
  VoltageRegulator regulator_;
  PeripheralState peripherals_;
  PowerTape tape_;
  Gpio gpio_;
  std::optional<Battery> battery_;
  SimTime last_battery_update_;

  FaultInjector* faults_ = nullptr;
  bool last_clock_change_failed_ = false;
  int brownouts_ = 0;
  EventId brownout_event_ = kInvalidEventId;

  // Observability instruments (all null until BindMetrics).
  MetricsCounter* ctr_clock_changes_ = nullptr;
  MetricsCounter* ctr_voltage_transitions_ = nullptr;
  MetricsCounter* ctr_power_segments_ = nullptr;
  LogHistogram* hist_switch_stall_us_ = nullptr;
};

}  // namespace dcs

#endif  // SRC_HW_ITSY_H_
