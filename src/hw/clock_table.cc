#include "src/hw/clock_table.h"

#include <cmath>

namespace dcs {

using clock_table_internal::kFrequencies;

int ClockTable::StepForAtLeastMhz(double mhz) {
  for (int k = 0; k < kNumClockSteps; ++k) {
    if (kFrequencies[static_cast<std::size_t>(k)] >= mhz) {
      return k;
    }
  }
  return kNumClockSteps - 1;
}

int ClockTable::NearestStep(double mhz) {
  int best = 0;
  double best_err = std::abs(kFrequencies[0] - mhz);
  for (int k = 1; k < kNumClockSteps; ++k) {
    const double err = std::abs(kFrequencies[static_cast<std::size_t>(k)] - mhz);
    if (err < best_err) {
      best_err = err;
      best = k;
    }
  }
  return best;
}

}  // namespace dcs
