// ISA variants of the batched DAQ's element-wise block passes.
//
// Daq::SampleBatched runs the serial passes of each block itself (the tape
// walked by runs into raw shunt volts, the uniform draws) and hands the rest
// to one function: the two channel kernels (noise_kernel.h), and measured
// current times measured rail to power.
// daq.cc compiles that function at three x86-64 ISA levels, and the process
// runs the widest one its CPU supports, chosen once on first use.  Nothing
// else selects it.
//
// Every variant returns the same bits.  daq.cc is built with
// -ffp-contract=off, so the AVX2 and AVX-512 variants cannot fuse a multiply
// and an add into an FMA: each variant performs the same correctly rounded
// IEEE-754 operations per element, only more of them per instruction.
// tests/daq/block_variant_test.cc checks every variant the host can run
// against the scalar reference pipeline (tests/support/reference_daq.h).
//
// This header is private to src/daq/daq.cc and its tests.

#ifndef SRC_DAQ_BLOCK_PASSES_H_
#define SRC_DAQ_BLOCK_PASSES_H_

#include "src/daq/noise_kernel.h"

namespace dcs {
namespace block_passes {

// One block of n samples.  The arrays must not overlap one another.
struct Block {
  double* vals;       // in: raw shunt volts, (watts / supply_volts) * shunt_ohms;
                      // out: measured watts
  double* supply;     // scratch: the quantised supply volts
  const double* u1;   // shunt-channel draws (read only when the channel is noisy)
  const double* u2;
  double* u3;         // supply-channel draws; then the quantised shunt volts
  const double* u4;
  int n;
  double supply_volts;
  double shunt_ohms;
  noise_kernel::AdcChannel shunt;
  noise_kernel::AdcChannel supply_rail;
};

// Runs the element-wise passes over one block.  Returns how many readings
// took the kernel's exact recompute.
using PassesFn = int (*)(const Block& block);

enum class Isa { kBaseline, kX86_64_V3, kX86_64_V4 };
inline constexpr Isa kAllIsas[] = {Isa::kBaseline, Isa::kX86_64_V3, Isa::kX86_64_V4};

// "baseline", "x86-64-v3" or "x86-64-v4".
const char* IsaName(Isa isa);

// The passes compiled for `isa`, or null when this build has no such
// variant (non-x86 targets and compilers without the ISA-level builtins
// compile only the baseline).
PassesFn PassesFor(Isa isa);

// Whether this build has `isa`'s variant and the CPU can run it.
bool Runnable(Isa isa);

// The widest runnable variant; decided on the first call.
Isa Chosen();

}  // namespace block_passes
}  // namespace dcs

#endif  // SRC_DAQ_BLOCK_PASSES_H_
