// The seeded fault injector the hardware, kernel and DAQ layers consult.
//
// One injector serves one experiment.  Every fault class draws from its own
// RNG stream, so (a) a class with probability zero never perturbs anything —
// a zero plan routed through the injector is byte-identical to no injector at
// all — and (b) turning one class up or down never shifts the sequence
// another class sees.  All decisions are pure functions of (plan, run seed,
// call count), which is what keeps faulted sweeps bit-identical across
// reruns and `--threads` values.
//
// The injector only *decides*; the consumers own the mechanics:
//   * Itsy::SetClockStep asks ClockChangeFails()/ClockStall() and pays the
//     stall either way (a failed PLL relock still locks out the core);
//   * Itsy::SetVoltage asks SettleTime()/BrownoutDuringSettle() and arms the
//     settle/brownout events;
//   * Kernel::Tick asks TickDelay()/QuantumMemSpikeFactor();
//   * Daq::SampleWindow and Daq::Measure ask DropSample() (in ApplyDrops,
//     per sample after sampling; the scalar reference asks it right after
//     each reading) and interpolate the holes.

#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>

#include "src/fault/fault_plan.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace dcs {

class FaultInjector {
 public:
  // Fault magnitudes.  Probabilities live in the plan; magnitudes are fixed
  // model constants, documented in EXPERIMENTS.md.
  static constexpr int kClockStretchFactor = 4;    // 200 us -> 800 us relock
  static constexpr int kSettleOverrunFactor = 4;   // 250 us -> 1 ms settle
  static constexpr double kTickJitterMaxUs = 2000.0;  // late by up to 2 ms
  static constexpr double kMemSpikeFactor = 2.5;   // per-quantum slowdown
  static constexpr int kBrownoutStepDrop = 2;      // forced clock step-down

  // `run_seed` is the experiment seed; it is mixed into every stream so
  // repeated runs of the same plan see independent fault sequences.
  explicit FaultInjector(const FaultPlan& plan, std::uint64_t run_seed = 0);

  const FaultPlan& plan() const { return plan_; }

  // --- Clock transitions (Itsy::SetClockStep) -----------------------------
  // True when this transition fails: the stall is paid, the step sticks.
  bool ClockChangeFails() { return Draw(FaultClass::kClockFail); }
  // Possibly-stretched PLL relock stall for one transition attempt.
  SimTime ClockStall(SimTime nominal);

  // --- Voltage regulator (Itsy::SetVoltage) -------------------------------
  // Possibly-overrunning settle interval for one downward rail transition.
  SimTime SettleTime(SimTime nominal);
  // True when the rail undershoot browns the core out mid-settle, forcing a
  // kBrownoutStepDrop clock step-down.
  bool BrownoutDuringSettle() { return Draw(FaultClass::kBrownout); }

  // --- Kernel timer (Kernel::Tick) ----------------------------------------
  // Delay until the next clock interrupt: `nominal` plus a missed period
  // (tick-miss) and/or late-interrupt jitter in (0, kTickJitterMaxUs].
  SimTime TickDelay(SimTime nominal);
  // Memory-latency multiplier for the quantum now starting (1.0 = no spike).
  double QuantumMemSpikeFactor();

  // --- DAQ (Daq::SampleWindow, Daq::Measure -> ApplyDrops) ----------------
  // True when this sample is lost and must be interpolated.
  bool DropSample() { return Draw(FaultClass::kDaqDrop); }

  // --- Device snapshots (src/sim/snapshot.h) -------------------------------
  // Per-class stream positions and trigger counts; the plan itself is config
  // and must match on the restore target.
  void Snapshot(SnapshotIo& io) {
    for (Rng& rng : streams_) {
      rng.Snapshot(io);
    }
    io(injected_);
  }

  // --- Accounting ----------------------------------------------------------
  std::uint64_t injected(FaultClass c) const {
    return injected_[static_cast<std::size_t>(static_cast<int>(c))];
  }
  std::uint64_t injected_total() const;

 private:
  // One Bernoulli decision on the class's isolated stream; counts triggers.
  bool Draw(FaultClass c);

  FaultPlan plan_;
  std::array<Rng, kNumFaultClasses> streams_;
  std::array<std::uint64_t, kNumFaultClasses> injected_{};
};

}  // namespace dcs

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
