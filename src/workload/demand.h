// Helpers for sizing workload compute demands.
//
// App models are calibrated in "milliseconds at 206.4 MHz" (the paper's
// reference configuration); these helpers convert that to base cycles given
// the workload's memory profile, so the same demand automatically stretches
// non-linearly at slower clocks via the memory model.

#ifndef SRC_WORKLOAD_DEMAND_H_
#define SRC_WORKLOAD_DEMAND_H_

#include "src/hw/clock_table.h"
#include "src/hw/memory_model.h"

namespace dcs {

// Base cycles that take `ms` milliseconds at the top step with `profile`.
inline double BaseCyclesForMsAtTop(double ms, const MemoryProfile& profile) {
  return ms * 1e-3 * MemoryModel::EffectiveBaseHz(ClockTable::MaxStep(), profile);
}

}  // namespace dcs

#endif  // SRC_WORKLOAD_DEMAND_H_
