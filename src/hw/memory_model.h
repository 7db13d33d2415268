// EDO-DRAM timing model (paper Table 3) and the resulting non-linear
// relationship between clock frequency and application throughput.
//
// The Itsy's EDO DRAM has a fixed access latency in wall-clock terms, so the
// number of *CPU cycles* spent per memory access grows with clock frequency —
// and not smoothly, because the memory controller synchronises to the bus
// clock.  The paper measured (Table 3):
//
//   MHz    59.0 73.7 88.5 103.2 118.0 132.7 147.5 162.2 176.9 191.7 206.4
//   word     11   11   11    11    13    14    14    15    18    19    20
//   line     39   39   39    39    41    42    49    50    60    61    69
//
// The jump between 162.2 and 176.9 MHz (15->18 word cycles, 50->60 line
// cycles) is what produces the utilization plateau in the paper's Figure 9:
// raising the clock across that boundary barely raises effective throughput
// for memory-bound code.
//
// Workloads are characterised by a MemoryProfile: how many uncached word
// references and cache-line fills they issue per 1000 cycles of pure
// computation.  A profile's effective rate at each step is fixed, so a task
// computes it once, as a RateRow, and converts "base cycles" of work into
// wall time at a given clock step and back through that row.

#ifndef SRC_HW_MEMORY_MODEL_H_
#define SRC_HW_MEMORY_MODEL_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "src/hw/clock_table.h"
#include "src/sim/fields.h"
#include "src/sim/time.h"

namespace dcs {

// Memory behaviour of a workload, normalised per 1000 cycles of computation.
// A purely compute-bound loop has both rates at 0; the paper's large Java
// applications "exhibit more significant memory behavior".
struct MemoryProfile {
  double word_refs_per_kilocycle = 0.0;
  double line_fills_per_kilocycle = 0.0;

  bool operator==(const MemoryProfile&) const = default;
};

// Every member, in declaration order (src/sim/fields.h).
constexpr auto Fields(const MemoryProfile*) {
  return std::tuple{&MemoryProfile::word_refs_per_kilocycle,
                    &MemoryProfile::line_fills_per_kilocycle};
}
static_assert(ListsEveryField<MemoryProfile>());

namespace memory_model_internal {

// Paper Table 3, verbatim.
inline constexpr std::array<int, kNumClockSteps> kWordCycles = {11, 11, 11, 11, 13, 14,
                                                                14, 15, 18, 19, 20};
inline constexpr std::array<int, kNumClockSteps> kLineCycles = {39, 39, 39, 39, 41, 42,
                                                                49, 50, 60, 61, 69};

}  // namespace memory_model_internal

// The table lookups are inline.  The per-segment conversions between wall
// time and work read a task's RateRow, built once from these functions.
class MemoryModel {
 public:
  // Measured cycles for an individual uncached word read at `step`
  // (paper Table 3, first column).
  static int WordAccessCycles(int step) {
    return memory_model_internal::kWordCycles[static_cast<std::size_t>(ClockTable::Clamp(step))];
  }

  // Measured cycles for a full cache-line fill at `step` (Table 3, second
  // column).
  static int LineFillCycles(int step) {
    return memory_model_internal::kLineCycles[static_cast<std::size_t>(ClockTable::Clamp(step))];
  }

  // Total CPU cycles consumed per base cycle of computation for `profile` at
  // `step`; always >= 1.  This is the factor by which memory stalls inflate
  // execution time.
  static double MixFactor(int step, const MemoryProfile& profile) {
    return 1.0 + profile.word_refs_per_kilocycle * WordAccessCycles(step) / 1000.0 +
           profile.line_fills_per_kilocycle * LineFillCycles(step) / 1000.0;
  }

  // Effective throughput in base cycles per second at `step`: frequency
  // divided by the mix factor.  Not monotone gains: between steps 7 and 8
  // (162.2 -> 176.9 MHz) the gain nearly vanishes for memory-heavy profiles.
  static double EffectiveBaseHz(int step, const MemoryProfile& profile) {
    return ClockTable::FrequencyHz(step) / MixFactor(step, profile);
  }

  // EffectiveBaseHz of one fixed profile at every step, computed once.  A
  // Task builds its row from its workload's profile; the kernel's segment
  // accounting and completion arming, and the deadline and feedback
  // governors' density loops, read it instead of re-deriving the mix factor.
  class RateRow {
   public:
    explicit RateRow(const MemoryProfile& profile);

    // EffectiveBaseHz(step, profile), bit for bit; steps outside
    // [0, kNumClockSteps) clamp, as there.
    double Hz(int step) const { return hz_[static_cast<std::size_t>(ClockTable::Clamp(step))]; }

    // Wall time to execute `base_cycles` of work at `step`.
    SimTime WallTimeForWork(double base_cycles, int step) const {
      assert(base_cycles >= 0.0);
      return SimTime::FromSecondsF(base_cycles / Hz(step));
    }

    // Base cycles completed in `wall` time at `step` (inverse of
    // WallTimeForWork; non-negative).
    double WorkCompletedIn(SimTime wall, int step) const {
      if (wall <= SimTime::Zero()) {
        return 0.0;
      }
      return wall.ToSeconds() * Hz(step);
    }

   private:
    std::array<double, kNumClockSteps> hz_;
  };
};

}  // namespace dcs

#endif  // SRC_HW_MEMORY_MODEL_H_
