// The batched DAQ pipeline and the ISA variants of its vector work.
//
// Sample() runs one stretch of a window: the whole window for
// Daq::SampleWindow, one fixed-size chunk of it at a time for Daq::Measure.
// It splits the stretch into eight contiguous lanes, one per generator of an
// RngLanes set: lane j starts at draw j * (count / 8) * draws_per_sample of
// the stretch's part of the DAQ's stream, placed by Rng::Jump, and reads the
// tape through its own run cursor.  Blocks of 256
// steps of all eight lanes then go through two functions, both
// lane-interleaved (element s * 8 + j is lane j's step s):
//
//   * the lane step draws each lane's uniforms, eight generators stepped
//     together in one vector-register set;
//   * the passes run the two channel kernels (noise_kernel.h: float screens
//     of the Box-Muller noise, verified per reading) and measured current
//     times measured rail to power, which they write straight to each lane's
//     eighth of the window, eight steps of the eight lanes at a time through
//     an 8x8 transpose.
//
// The last count % 8 samples are drawn serially from lane 7's end state,
// which then becomes the DAQ's generator.  So every sample, and the stream
// position after the stretch, is the serial pipeline's, however the window
// is cut into stretches.
//
// daq.cc compiles the lane step and the passes at three x86-64 ISA levels,
// and the process runs the widest one its CPU supports, chosen once on first
// use.  Nothing else selects it.  Every variant returns the same bits.
// daq.cc is built with -ffp-contract=off, so the AVX2 and AVX-512 variants
// cannot fuse a multiply and an add into an FMA: each variant performs the
// same correctly rounded IEEE-754 operations per element, only more of them
// per instruction.  The lane step's integer arithmetic is exact everywhere.
// tests/daq/block_variant_test.cc checks every variant the host can run
// against the scalar reference pipeline (tests/support/reference_daq.h).
//
// This header is private to src/daq and its tests.

#ifndef SRC_DAQ_BLOCK_PASSES_H_
#define SRC_DAQ_BLOCK_PASSES_H_

#include <array>
#include <cstdint>
#include <iterator>

#include "src/daq/noise_kernel.h"
#include "src/hw/power_tape.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace dcs {
namespace block_passes {

inline constexpr int kLanes = RngLanes::kLanes;
// Steps per block: big enough to amortise loop overhead and fill vector
// lanes, small enough that the scratch arrays stay cache-resident.
inline constexpr int kSteps = 256;
inline constexpr int kBatch = kSteps * kLanes;
// Uniforms a sample of a noisy pipeline draws: a Box-Muller pair for each
// of its two channels.
inline constexpr int kDraws = 4;

// The pipeline's constants (PipelineFor in daq.h derives them from a
// DaqConfig).
struct Pipeline {
  double supply_volts;
  double shunt_ohms;
  noise_kernel::AdcChannel shunt;
  noise_kernel::AdcChannel supply_rail;
};

// One block of n samples, in `lanes` lanes: element s * lanes + j is lane
// j's step s.  The arrays must not overlap one another.
struct Block {
  const double* vals;   // raw shunt volts, (watts / supply_volts) * shunt_ohms
  double* supply;       // scratch: the quantised supply volts
  const double* u1;     // shunt-channel draws (read only when the channel is noisy)
  const double* u2;
  double* u3;           // supply-channel draws; then the quantised shunt volts
  const double* u4;
  int n;
  int lanes;            // kLanes, or 1 for the serial tail
  double* out[kLanes];  // measured watts: lane j's step s to out[j][s]
  const Pipeline* pipeline;
};

// Runs the element-wise passes over one block.  Returns how many readings
// took the kernel's exact recompute.
using PassesFn = int (*)(const Block& block);

// Steps every lane `steps` times.  At step s, lane j's draws, in its
// stream's order, land in dst[0][s * kLanes + j], ..., dst[kDraws - 1][...].
using LaneStepFn = void (*)(RngLanes& lanes, int steps, double* const* dst);

struct Variant {
  PassesFn passes;
  LaneStepFn lane_step;
};

enum class Isa { kBaseline, kX86_64_V3, kX86_64_V4 };
inline constexpr Isa kAllIsas[] = {Isa::kBaseline, Isa::kX86_64_V3, Isa::kX86_64_V4};

// The ISA table, indexed by Isa: the functions compiled for each ISA, or
// nulls when this build has no such variant (non-x86 targets and compilers
// without the ISA-level builtins compile only the baseline).
extern const Variant kVariants[std::size(kAllIsas)];
inline const Variant& VariantFor(Isa isa) { return kVariants[static_cast<int>(isa)]; }

// Whether this build has `isa`'s variant and the CPU can run it.
bool Runnable(Isa isa);

// The widest runnable variant; decided on the first call.
Isa Chosen();

// Per-block scratch, and the lane jump of the last stretch's size.  Fixed
// arrays: sampling never allocates for them.
struct Scratch {
  alignas(64) std::array<double, kBatch> vals;    // raw shunt volts, lane-interleaved
  alignas(64) std::array<double, kBatch> supply;  // quantised supply channel volts
  alignas(64) std::array<double, kBatch> u1, u2;  // shunt-channel uniform draws
  alignas(64) std::array<double, kBatch> u3, u4;  // supply-channel uniform draws; u3
                                                  // then holds the quantised shunt volts
  // Rng::JumpOf(jump_draws), kept because Daq::Measure samples every chunk
  // but its last at one size; 0 draws is never jumped.
  std::uint64_t jump_draws = 0;
  Rng::JumpPoly jump{};
};

// Samples the `count` readings first, ..., first + count - 1 of `tape`,
// reading k taken at begin + FromSecondsF(k * period_s), into out[0, count)
// with `isa`'s variant, which must be runnable.  `rng` is the generator at
// reading `first` and ends count * draws_per_sample draws on.  Returns how
// many readings took the kernel's exact recompute.
int Sample(Isa isa, const Pipeline& pipeline, const PowerTape& tape, SimTime begin,
           double period_s, std::int64_t first, std::int64_t count, Rng& rng, Scratch& scratch,
           double* out);

}  // namespace block_passes
}  // namespace dcs

#endif  // SRC_DAQ_BLOCK_PASSES_H_
