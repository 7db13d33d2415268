// The data-acquisition (DAQ) system model.
//
// The paper's measurement rig: "we use a data acquisition (DAQ) system to
// record the current drawn by the Itsy ... and the voltage provided by this
// supply.  We configured the DAQ system to read the voltage 5000 times per
// second, and convert these readings to 16-bit values."  The supply current
// was measured as the voltage drop across a 0.02 ohm precision shunt; a
// GPIO pin wired to the DAQ's external trigger marks the measurement window.
//
// Our DAQ samples the Itsy's ground-truth power tape through the same
// pipeline: shunt voltage -> 16-bit ADC quantisation (+ optional Gaussian
// noise) -> current -> power; energy is integrated with the paper's
// rectangle rule (each sample stands for the following 0.0002 s).

#ifndef SRC_DAQ_DAQ_H_
#define SRC_DAQ_DAQ_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/hw/gpio.h"
#include "src/hw/power_tape.h"
#include "src/sim/arena.h"
#include "src/sim/fields.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

class FaultInjector;

struct DaqConfig {
  double sample_hz = 5000.0;
  double shunt_ohms = 0.02;
  double supply_volts = 3.1;
  // ADC input ranges (full scale) and resolution.
  double shunt_range_volts = 0.1;   // +/- range for the shunt channel
  double supply_range_volts = 5.0;  // 0..range for the supply channel
  int adc_bits = 16;
  // Additive Gaussian noise on each channel, in LSBs.
  double noise_lsb = 1.0;
  std::uint64_t seed = 0x0DA05EEDULL;
};

// Every member, in declaration order (src/sim/fields.h).
constexpr auto Fields(const DaqConfig*) {
  return std::tuple{&DaqConfig::sample_hz, &DaqConfig::shunt_ohms, &DaqConfig::supply_volts,
                    &DaqConfig::shunt_range_volts, &DaqConfig::supply_range_volts,
                    &DaqConfig::adc_bits, &DaqConfig::noise_lsb, &DaqConfig::seed};
}
static_assert(ListsEveryField<DaqConfig>());

class Daq {
 public:
  // `arena`, when bound, backs the internal sample buffer so steady-state
  // sampling performs no heap allocation; it must outlive the Daq.
  explicit Daq(const DaqConfig& config = {}, Arena* arena = nullptr);

  const DaqConfig& config() const { return config_; }
  SimTime SamplePeriod() const { return SimTime::FromSecondsF(1.0 / config_.sample_hz); }

  // Samples instantaneous power over [begin, end) at sample_hz, applying the
  // shunt/ADC model.  Sample i is taken at
  // begin + FromSecondsF(i * (1 / sample_hz)), an instant that never
  // decreases as i grows, so each power segment covers a contiguous run of
  // sample indices.  The tape is read by runs: one
  // binary search places sample 0, each run's end is estimated and then
  // corrected against that exact instant expression, and the run's raw shunt
  // volts are computed once and filled in.  A sample before the first
  // segment reads 0 W; a tape without history throws std::logic_error.
  // Samples the bound fault injector drops are reconstructed by linear
  // interpolation between their surviving neighbours (edge runs copy the
  // nearest survivor); without a bound injector the drop bookkeeping is
  // never materialised.
  //
  // Per 2048-sample block, the shunt volts and the ADC channel values each
  // live in a contiguous array, and each pass is a tight loop.  The uniform
  // draws stay serial, in the reference pipeline's exact stream order, from
  // a local copy of the generator so its state stays in registers.  The
  // noise pass approximates, then verifies: each channel's Box-Muller noise
  // comes from vectorised polynomial log/cos (src/daq/noise_kernel.h), which
  // can only matter through the integer ADC code it rounds to.  A reading
  // whose pre-round value lies within the polynomials' error margin of a
  // rounding boundary is recomputed with the scalar std::log/std::sqrt/
  // std::cos expression.  The element-wise passes (both channel kernels,
  // current times rail) are compiled at the baseline, x86-64-v3 (AVX2) and
  // x86-64-v4 (AVX-512) ISA levels; the process runs the widest its CPU
  // supports (IsaVariant()), and all three return the same bits
  // (src/daq/block_passes.h).  So the result is bit-for-bit that of the
  // one-reading-at-a-time scalar pipeline the tests keep as the reference
  // (tests/support/reference_daq.h; see
  // tests/hotpath/daq_soa_property_test.cc, tests/daq/noise_kernel_test.cc
  // and tests/daq/block_variant_test.cc).
  //
  // Returns a view into an internal buffer that remains valid until the
  // next SampleWindow call.
  std::span<const double> SampleWindow(const PowerTape& tape, SimTime begin, SimTime end);

  // Binds the fault injector (non-owning; null unbinds).  Unbound, sampling
  // is byte-identical to the pre-fault DAQ.
  void BindFaults(FaultInjector* faults) { faults_ = faults; }

  // Samples lost to injected drops so far.
  std::uint64_t dropped_samples() const { return dropped_samples_; }

  // Rectangle-rule energy: sum(p_i * 0.0002 s), exactly as in section 4.1.
  double EnergyJoules(std::span<const double> samples) const;
  double AverageWatts(std::span<const double> samples) const;

  // The ISA variant of the batched element-wise passes this process runs:
  // "baseline", "x86-64-v3" or "x86-64-v4", chosen once from the CPU.
  static const char* IsaVariant();

  // Reconstructs the samples at `dropped` (sorted indices) in place.  The
  // test reference pipeline (tests/support/reference_daq.h) shares it.
  static void InterpolateDropped(double* samples, std::size_t n,
                                 const std::size_t* dropped, std::size_t dropped_n);

 private:
  // SoA block size: big enough to amortise loop overhead and fill vector
  // lanes, small enough that the scratch arrays stay cache-resident.
  static constexpr int kBatch = 2048;

  // The batched SoA pipeline (no drop handling; see ApplyDrops).
  void SampleBatched(const PowerTape& tape, SimTime begin, std::int64_t count,
                     double period_s);
  // Drops overlaid after sampling.  The injector's drop stream is isolated
  // from the DAQ noise stream, so deciding drops after the batch (instead of
  // interleaved per sample, as the reference does) reads both streams in the
  // same per-stream order and yields identical values.
  void ApplyDrops();

  DaqConfig config_;
  Rng rng_;
  double shunt_lsb_;
  double supply_lsb_;
  FaultInjector* faults_ = nullptr;
  std::uint64_t dropped_samples_ = 0;

  // Sample window output (reused across calls; arena-backed when bound).
  ArenaVector<double> samples_;
  ArenaVector<std::size_t> dropped_;
  // Per-block SoA scratch.  Fixed arrays: sampling never allocates for them.
  // The shunt-volts column lives directly in samples_ (batches write in
  // place), so only the channel temporaries need scratch.
  struct Scratch {
    std::array<double, kBatch> supply;  // quantised supply channel volts
    std::array<double, kBatch> u1, u2;  // shunt-channel uniform draws
    std::array<double, kBatch> u3, u4;  // supply-channel uniform draws; u3 then
                                        // holds the quantised shunt volts
  };
  Scratch scratch_;
};

// Latches a measurement window from GPIO edges, as the paper's trigger wire
// did: the first observed edge on `pin` starts the window, the second ends
// it (further edges start new windows).
class GpioTrigger {
 public:
  explicit GpioTrigger(int pin) : pin_(pin) {}

  // Attach to a GPIO bank; observes all subsequent edges.
  void Attach(Gpio& gpio);

  // Completed [start, end) windows so far.
  const std::vector<std::pair<SimTime, SimTime>>& windows() const { return windows_; }
  // Window currently open (started but not yet ended), if any.
  std::optional<SimTime> open_window_start() const { return open_start_; }

  // Device-snapshot image (src/sim/snapshot.h).
  void Snapshot(SnapshotIo& io) {
    io.Optional<SimTime>(open_start_);
    io.Window(windows_, SnapshotIo::kNoBound, 2 * sizeof(std::int64_t),
              [&io](std::pair<SimTime, SimTime>& w) { io(w.first, w.second); });
  }

 private:
  int pin_;
  std::optional<SimTime> open_start_;
  std::vector<std::pair<SimTime, SimTime>> windows_;
};

}  // namespace dcs

#endif  // SRC_DAQ_DAQ_H_
