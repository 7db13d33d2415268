// Synthetic loads with exactly controllable utilization patterns.
//
// The constant-utilization load is the switch-overhead bench's busy task;
// the rectangle-wave samples are Figure 7's input: the paper's section 5.3
// example ("busy for 9 cycles, and then idle for 1 cycle — an idealized
// version of our MPEG player running roughly at an optimal speed").  Busy
// phases use SpinUntil so the pattern is frequency-independent — the
// utilization a governor observes is exactly the scripted one, regardless of
// what the governor does to the clock.

#ifndef SRC_WORKLOAD_SYNTHETIC_H_
#define SRC_WORKLOAD_SYNTHETIC_H_

#include <vector>

#include "src/kernel/workload_api.h"

namespace dcs {

// Keeps every quantum at a fixed utilization: spins for u * quantum, sleeps
// the rest, forever.
class ConstantUtilizationWorkload final : public Workload {
 public:
  explicit ConstantUtilizationWorkload(double utilization,
                                       SimTime quantum = SimTime::Millis(10));

  const char* Name() const override { return "const_util"; }
  Action Next(const WorkloadContext& ctx) override;

  void Snapshot(SnapshotIo& io) override { io(spun_); }

 private:
  double utilization_;
  SimTime quantum_;
  bool spun_ = false;
};

// Pure-function rectangle wave generator for offline filter analysis
// (Figure 7): `length` samples of 1.0 (busy) / 0.0 (idle) with the given
// period structure.
std::vector<double> RectangleWaveSamples(int busy, int idle, int length);

}  // namespace dcs

#endif  // SRC_WORKLOAD_SYNTHETIC_H_
