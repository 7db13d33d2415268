#include "src/exp/experiment.h"

#include "src/exp/device_sim.h"

namespace dcs {

// A thin wrapper over DeviceSim (src/exp/device_sim.h), which is the old
// RunExperiment body split at its phase boundaries so fleet workers can
// snapshot/restore mid-run.  Run() preserves the original statement order
// exactly; the golden suite holds the results byte-identical.

ExperimentResult RunExperiment(const ExperimentConfig& config, ExperimentReads reads) {
  DeviceSim device(config, reads);
  return device.Run();
}

}  // namespace dcs
