#include "src/hw/memory_model.h"

#include <cassert>

namespace dcs {

SimTime MemoryModel::WallTimeForWork(double base_cycles, int step,
                                     const MemoryProfile& profile) {
  assert(base_cycles >= 0.0);
  return SimTime::FromSecondsF(base_cycles / EffectiveBaseHz(step, profile));
}

}  // namespace dcs
