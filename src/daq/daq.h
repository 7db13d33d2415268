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

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/daq/block_passes.h"
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

namespace block_passes {

// `config`'s pipeline: each channel's range, step and noise.
inline Pipeline PipelineFor(const DaqConfig& config) {
  const double steps = std::pow(2.0, config.adc_bits);
  // Shunt channel is bipolar (+/- range); supply channel unipolar.
  const double shunt_lsb = 2.0 * config.shunt_range_volts / steps;
  const double supply_lsb = config.supply_range_volts / steps;
  return {config.supply_volts, config.shunt_ohms,
          {config.noise_lsb * shunt_lsb, -config.shunt_range_volts, config.shunt_range_volts,
           shunt_lsb},
          {config.noise_lsb * supply_lsb, 0.0, config.supply_range_volts, supply_lsb}};
}

}  // namespace block_passes

class Daq {
 public:
  // `arena`, when bound, backs the internal sample buffer so steady-state
  // sampling performs no heap allocation; it must outlive the Daq.
  // Throws std::invalid_argument for a config it cannot sample: a
  // sample_hz, range, shunt_ohms or supply_volts that is not finite and
  // positive, adc_bits below 1, a noise_lsb that is not finite and
  // non-negative, a channel whose LSB (range / 2^adc_bits) is not a normal
  // number, or a positive noise_lsb whose noise rounds to 0 on a channel.
  // So a sample draws four uniforms (both channels noisy) or none.
  explicit Daq(const DaqConfig& config = {}, Arena* arena = nullptr);

  const DaqConfig& config() const { return config_; }
  SimTime SamplePeriod() const { return SimTime::FromSecondsF(1.0 / config_.sample_hz); }

  // Samples instantaneous power over [begin, end) at sample_hz, applying the
  // shunt/ADC model.  Sample i is taken at
  // begin + FromSecondsF(i * (1 / sample_hz)), an instant that never
  // decreases as i grows, so each power segment covers a contiguous run of
  // sample indices.  The tape is read by runs: one
  // binary search places a cursor, each run's end is estimated and then
  // corrected against that exact instant expression, and the run's raw shunt
  // volts are computed once and filled in.  A sample before the first
  // segment reads 0 W; a tape without history throws std::logic_error.
  // Samples the bound fault injector drops are reconstructed by linear
  // interpolation between their surviving neighbours (edge runs copy the
  // nearest survivor); without a bound injector the drop bookkeeping is
  // never materialised.
  //
  // The window is sampled in eight contiguous lanes (src/daq/block_passes.h).
  // Lane j starts j * (count / 8) * draws_per_sample draws into the DAQ's
  // stream, placed by Rng::Jump, and has its own tape cursor; the eight
  // generators step together in one vector-register set, so the draws are no
  // longer a serial pass.  The last count % 8 samples are drawn serially from
  // lane 7's end state, which the DAQ keeps.  Per block of 256 steps of all
  // eight lanes, the shunt volts, the draws and the ADC channel values each
  // live in a contiguous lane-interleaved array, and each pass is a tight
  // loop; the last one writes the measured watts straight into each lane's
  // eighth of the window.  The noise pass screens, then verifies: each
  // channel's Box-Muller noise comes from float screens of ln and cos
  // (src/daq/noise_kernel.h), which can only matter through the integer ADC
  // code it rounds to.  A reading whose pre-round value lies within its own
  // margin (the screens' error bound times the reading's magnitude) of a
  // rounding boundary is recomputed with the scalar
  // std::log/std::sqrt/std::cos expression.  The lane step and the
  // element-wise passes (both channel kernels, current times rail) are
  // compiled at the baseline, x86-64-v3 (AVX2) and x86-64-v4 (AVX-512) ISA
  // levels; the process runs the widest its CPU supports
  // (block_passes::Chosen()), and all three return the same bits.  So the
  // result, and the stream position after it, is bit-for-bit that of the
  // one-reading-at-a-time scalar pipeline the tests keep as the reference
  // (tests/support/reference_daq.h; see
  // tests/hotpath/daq_soa_property_test.cc, tests/daq/noise_kernel_test.cc
  // and tests/daq/block_variant_test.cc).
  //
  // Returns a view into an internal buffer that remains valid until the
  // next SampleWindow or Measure call.
  std::span<const double> SampleWindow(const PowerTape& tape, SimTime begin, SimTime end);

  // Binds the fault injector (non-owning; null unbinds).  Unbound, sampling
  // is byte-identical to the pre-fault DAQ.
  void BindFaults(FaultInjector* faults) { faults_ = faults; }

  // Samples lost to injected drops so far.
  std::uint64_t dropped_samples() const { return dropped_samples_; }

  // Readings so far whose noise screen could have moved their ADC code and
  // that took the exact recompute (src/daq/noise_kernel.h).
  std::uint64_t recomputed() const { return recomputed_; }

  // One pass over a window's samples: the rectangle-rule energy,
  // sum(p_i * 0.0002 s) exactly as in section 4.1, and the mean power
  // (0 for no samples).  Each sum runs in sample order.
  struct Totals {
    double joules;
    double average_watts;
  };
  Totals Fold(std::span<const double> samples) const;
  double EnergyJoules(std::span<const double> samples) const { return Fold(samples).joules; }

  // Fold(SampleWindow(tape, begin, end)) without a window-sized buffer: the
  // same bits, and the generator, dropped_samples() and recomputed() end
  // where that call would leave them.  The window is sampled in chunks of
  // kChunkSamples readings (the last one shorter), each through the same
  // eight-lane pipeline with its first reading's index, so reading k is
  // still taken at begin + FromSecondsF(k / sample_hz) and draws the same
  // place in the stream.  Each chunk's drops are reconstructed and its
  // samples folded into the two running sums in sample order.  A dropped
  // run still open at a chunk's end is carried: its left survivor and length
  // wait for the next chunk's first survivor, or the window's end.
  Totals Measure(const PowerTape& tape, SimTime begin, SimTime end);

  // Measure's chunk: eight lanes of 16384 readings, 1 MiB of samples.
  static constexpr std::int64_t kChunkSamples = std::int64_t{block_passes::kLanes} * 16384;

 private:
  // A dropped run not yet closed by a survivor: its left survivor, if any,
  // and how many samples it holds so far.
  struct DropCarry {
    bool has_left = false;
    double left = 0.0;
    std::int64_t open = 0;
  };
  struct Sums;

  // Overlays the bound injector's drops on s[0, n), the window's next n
  // samples, in sample order, and reconstructs each dropped run by linear
  // interpolation between its surviving neighbours; a run at the window's
  // start copies its right one, a run at its end (`last`) its left one, and
  // a window with every sample dropped stays zero.  A run still open at
  // s[n - 1] stays in `carry` unless `last`.  The values of a run's samples
  // that lie before s (earlier chunks) go to `earlier`, in order, before any
  // of s is final.  Returns how many leading samples of s are final.  The
  // injector's drop stream is isolated from the DAQ noise stream, so
  // deciding drops after the samples (instead of interleaved per sample, as
  // the reference does) reads both streams in the same per-stream order and
  // yields identical values.
  std::int64_t ApplyDrops(double* s, std::int64_t n, bool last, DropCarry& carry,
                          Sums* earlier);

  DaqConfig config_;
  Rng rng_;
  block_passes::Pipeline pipeline_;
  FaultInjector* faults_ = nullptr;
  std::uint64_t dropped_samples_ = 0;
  std::uint64_t recomputed_ = 0;

  // The sample window, or Measure's chunk (reused across calls;
  // arena-backed when bound).  Sized without zero-filling: the lanes write
  // every sample.
  std::vector<double, NoInitArenaAllocator<double>> samples_;
  block_passes::Scratch scratch_;
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
