// Non-ideal battery model (paper section 2.1).
//
// Two effects matter for clock scheduling:
//   1. Rate-capacity (Peukert) effect — the energy a battery can deliver
//      drops as the discharge current rises.  The paper's illustration: two
//      AAA alkaline cells power an idle Itsy for ~2 h at 206 MHz but ~18 h at
//      59 MHz — a 9x lifetime gain for a 3.5x clock (and power) reduction.
//      We use the Peukert law t = Cp / I^k; fitting those endpoints gives
//      k = ln(9)/ln(3.5) ~= 1.754.
//   2. Pulsed-discharge recovery (Chiasserini & Rao, cited in the paper) —
//      interspersing high-demand bursts with long low-demand periods lets the
//      cell chemistry recover part of the rate-induced loss.  The paper notes
//      this matters less than (1) for pocket computers; we model it as a
//      recoverable-charge pool that refills during low-current periods.
//
// The model integrates depth-of-discharge over piecewise-constant current
// segments; lifetime experiments feed it the Itsy power trace divided by the
// supply voltage.

#ifndef SRC_HW_BATTERY_H_
#define SRC_HW_BATTERY_H_

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "src/sim/fields.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

struct BatteryParams {
  // Peukert capacity constant Cp in A^k * hours; with kPeukert below, chosen
  // so a 0.332 A drain (idle Itsy at 206 MHz) lasts 2.0 hours.
  double peukert_capacity = 0.2892;
  // Peukert exponent k (1 = ideal battery).
  double peukert_exponent = 1.754;
  // Reference current in amps: at exactly this current the Peukert penalty
  // equals 1 (drain is "nominal").  Currents below it are *less* taxing.
  double reference_current_a = 0.1;
  // Supply voltage for power -> current conversion (two cells in series under
  // load; the Itsy regulates from a single ~3.1 V supply).
  double supply_volts = 3.1;
  // Pulsed-discharge recovery: fraction of the Peukert *excess* loss (drain
  // beyond the ideal I*t) that is banked as recoverable.
  double recoverable_fraction = 0.25;
  // Rate at which the recoverable pool flows back into capacity during
  // low-current (< reference) periods, as a fraction of the pool per hour.
  double recovery_per_hour = 0.5;
};

// Every member, in declaration order (src/sim/fields.h).
constexpr auto Fields(const BatteryParams*) {
  return std::tuple{&BatteryParams::peukert_capacity, &BatteryParams::peukert_exponent,
                    &BatteryParams::reference_current_a, &BatteryParams::supply_volts,
                    &BatteryParams::recoverable_fraction, &BatteryParams::recovery_per_hour};
}
static_assert(ListsEveryField<BatteryParams>());

class Battery {
 public:
  Battery() = default;
  explicit Battery(const BatteryParams& params) : params_(params) {}

  const BatteryParams& params() const { return params_; }

  // Integrates a constant-power segment of length `dt`.  Call with the
  // system power for each piecewise-constant interval of the power trace.
  void Drain(double watts, SimTime dt);

  // Fraction of usable charge consumed so far; >= 1 means empty.
  double DepthOfDischarge() const { return depth_; }
  bool Empty() const { return depth_ >= 1.0; }

  // Time of death: total drained time when depth first crossed 1.0 (linearly
  // interpolated within the crossing segment).  Feeds the fleet layer's
  // battery-death time curve.  Died() stays true even if recovery later
  // pulls the depth back under 1.0 — the device browned out regardless.
  bool Died() const { return died_; }
  SimTime DiedAt() const { return died_at_; }

  // Charge currently banked as recoverable, as a fraction of capacity.
  double RecoverablePool() const { return recoverable_; }

  // Predicted lifetime at a constant power draw (closed form, no recovery):
  // hours until empty.
  double LifetimeHoursAtConstantPower(double watts) const;

  // Replaces the parameter set.  The fleet layer uses this at device-fork
  // time to apply per-device capacity jitter: the shared warmup charge state
  // (depth, recoverable pool — both capacity fractions) carries over, future
  // drain follows the device's own capacity.  The Peukert memo (below) is
  // kept across a change that keeps the exponent.
  void SetParams(const BatteryParams& params) {
    if (params.peukert_exponent != params_.peukert_exponent) {
      memo_.fill(MemoEntry{});
    }
    params_ = params;
    reference_penalty_ = ReferencePenalty(params_);
  }

  // Device-snapshot support (src/sim/snapshot.h).  Params are config and not
  // saved; SetParams above reapplies any per-device jitter after a load.
  // The Peukert memo is a pure function of the exponent and is not saved.
  void Snapshot(SnapshotIo& io) { io(depth_, recoverable_, life_, died_, died_at_); }

  // The memo slot `amps` hashes to (its first probe).  Public so tests can
  // force two currents into one slot.
  static std::size_t MemoSlot(double amps) {
    return static_cast<std::size_t>((std::bit_cast<std::uint64_t>(amps) * kMemoHashMultiplier) >>
                                    (64 - kMemoBits));
  }

 private:
  // pow(amps, k), memoised by the exact bits of `amps`.  A device draws from
  // a few dozen discrete power levels (clock step x rail x busy/nap x
  // peripherals), so nearly every Drain() finds its level here instead of
  // calling pow.  Open addressing over a fixed table: a level is stored in
  // the first free slot of its probe run, and one that finds no free slot in
  // kMemoProbes is computed without being stored.
  double PeukertPower(double amps);

  // Key 0 (the bits of +0.0) marks a free slot; Drain() never asks for a
  // current <= 0.
  struct MemoEntry {
    std::uint64_t amps_bits = 0;
    double power = 0.0;
  };
  static constexpr int kMemoBits = 7;
  static constexpr std::size_t kMemoSize = std::size_t{1} << kMemoBits;
  static constexpr std::size_t kMemoProbes = 8;
  static constexpr std::uint64_t kMemoHashMultiplier = 0x9E3779B97F4A7C15u;

  // I_ref^(k-1), which scales the ideal (effect-free) drain rate in Drain().
  // Fixed for a parameter set, so it is computed whenever the params are
  // set (the initializer below follows params_'s), not per power segment.
  static double ReferencePenalty(const BatteryParams& p) {
    return std::pow(p.reference_current_a, p.peukert_exponent - 1.0);
  }

  BatteryParams params_;
  double reference_penalty_ = ReferencePenalty(params_);
  double depth_ = 0.0;        // fraction of usable capacity consumed
  double recoverable_ = 0.0;  // fraction banked for recovery
  SimTime life_;              // total drained (simulated) time so far
  bool died_ = false;
  SimTime died_at_;
  std::array<MemoEntry, kMemoSize> memo_{};
};

}  // namespace dcs

#endif  // SRC_HW_BATTERY_H_
