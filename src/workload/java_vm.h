// Kaffe JVM artifacts.
//
// "The graphics library used by Java is a modified version of the publically
// available GRX graphics library and uses a polling I/O model to check for
// new input every 30 milliseconds" ... "when the Java system is 'idle,'
// there is a constant polling action every 30ms that takes about a
// millisecond to complete."  The paper credits this polling with injecting
// periodic noise that destabilises the clock-setting algorithms, so the
// Java-hosted applications (Web, Chess, TalkingEditor) all run one of these
// tasks alongside their main workload.

#ifndef SRC_WORKLOAD_JAVA_VM_H_
#define SRC_WORKLOAD_JAVA_VM_H_

#include "src/kernel/workload_api.h"

namespace dcs {

class JavaPollWorkload final : public Workload {
 public:
  // `poll_cost_ms_at_top` is the poll handler's cost at 206.4 MHz (~1 ms).
  explicit JavaPollWorkload(SimTime period = SimTime::Millis(30),
                            double poll_cost_ms_at_top = 1.0);

  const char* Name() const override { return "java_poll"; }
  Action Next(const WorkloadContext& ctx) override;
  MemoryProfile Profile() const override { return profile_; }

  void Snapshot(SnapshotIo& io) override { io(next_poll_, computing_, primed_); }

 private:
  SimTime period_;
  double poll_cycles_;
  MemoryProfile profile_;
  SimTime next_poll_;
  bool computing_ = false;
  bool primed_ = false;
};

}  // namespace dcs

#endif  // SRC_WORKLOAD_JAVA_VM_H_
