#include "src/hw/memory_model.h"

namespace dcs {

MemoryModel::RateRow::RateRow(const MemoryProfile& profile) {
  for (int step = 0; step < kNumClockSteps; ++step) {
    hz_[static_cast<std::size_t>(step)] = EffectiveBaseHz(step, profile);
  }
}

}  // namespace dcs
