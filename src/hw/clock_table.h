// The StrongARM SA-1100 clock step table.
//
// The SA-1100 core clock is generated from a 3.6864 MHz crystal through a
// PLL that supports 11 discrete multipliers: f_k = (16 + 4k) * 3.6864 MHz
// for k = 0..10, i.e. 59.0, 73.7, 88.5, 103.2, 118.0, 132.7, 147.5, 162.2,
// 176.9, 191.7 and 206.4 MHz — exactly the clock steps the paper lists.
// Changing steps stalls the processor for ~200 us while the PLL relocks
// (paper section 5.4), independent of the starting and target speeds.

#ifndef SRC_HW_CLOCK_TABLE_H_
#define SRC_HW_CLOCK_TABLE_H_

#include <array>
#include <cstddef>

#include "src/sim/time.h"

namespace dcs {

// Number of discrete clock steps on the SA-1100.
inline constexpr int kNumClockSteps = 11;

// Crystal frequency feeding the PLL; also the timer granularity the paper's
// gettimeofday-based measurements rely on.
inline constexpr double kCrystalMhz = 3.6864;

// Measured PLL relock stall: the CPU executes nothing for this long on every
// clock change, regardless of endpoints (paper: ~200 us).
inline constexpr SimTime kClockSwitchStall = SimTime::Micros(200);

namespace clock_table_internal {

constexpr std::array<double, kNumClockSteps> BuildFrequencies() {
  std::array<double, kNumClockSteps> f{};
  for (int k = 0; k < kNumClockSteps; ++k) {
    f[static_cast<std::size_t>(k)] = (16 + 4 * k) * kCrystalMhz;
  }
  return f;
}

inline constexpr std::array<double, kNumClockSteps> kFrequencies = BuildFrequencies();

}  // namespace clock_table_internal

// Static facts about the clock steps.  All functions clamp/validate their
// step argument so governors can be sloppy about bounds.  The per-step
// lookups are inline: the kernel and the memory model call them on every
// executed segment.
class ClockTable {
 public:
  // Frequency of `step` in MHz; steps outside [0, kNumClockSteps) are
  // clamped.
  static double FrequencyMhz(int step) {
    return clock_table_internal::kFrequencies[static_cast<std::size_t>(Clamp(step))];
  }

  // Frequency in Hz.
  static double FrequencyHz(int step) { return FrequencyMhz(step) * 1e6; }

  // Clamps a step index into the valid range.
  static int Clamp(int step) {
    if (step < 0) {
      return 0;
    }
    if (step >= kNumClockSteps) {
      return kNumClockSteps - 1;
    }
    return step;
  }

  // The lowest step whose frequency is >= mhz; returns the top step if no
  // step is fast enough.
  static int StepForAtLeastMhz(double mhz);

  // The step whose frequency is closest to mhz.
  static int NearestStep(double mhz);

  static constexpr int MinStep() { return 0; }
  static constexpr int MaxStep() { return kNumClockSteps - 1; }
};

}  // namespace dcs

#endif  // SRC_HW_CLOCK_TABLE_H_
