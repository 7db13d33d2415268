// Synthetic test workloads with exactly controllable behaviour.
//
// The rectangle wave is the paper's section 5.3 example ("busy for 9
// cycles, and then idle for 1 cycle — an idealized version of our MPEG
// player running roughly at an optimal speed"); its busy phases use
// SpinUntil, so the utilization a governor observes is exactly the scripted
// one whatever the governor does to the clock.  The compute-once task
// records when its one burst finished, and the Poisson bursts give a seeded
// intermittent load.  src/workload/synthetic.h keeps what the benches run.

#ifndef TESTS_SUPPORT_SYNTHETIC_WORKLOADS_H_
#define TESTS_SUPPORT_SYNTHETIC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "src/kernel/workload_api.h"
#include "src/sim/snapshot.h"

namespace dcs {

// Repeats: busy for `busy` quanta, idle for `idle` quanta.  Runs forever
// (or until `cycles` repetitions when positive).
class RectangleWaveWorkload final : public Workload {
 public:
  RectangleWaveWorkload(int busy_quanta, int idle_quanta,
                        SimTime quantum = SimTime::Millis(10), int cycles = -1);

  const char* Name() const override { return name_.c_str(); }
  Action Next(const WorkloadContext& ctx) override;

  void Snapshot(SnapshotIo& io) override {
    io.As<std::int64_t>(cycles_remaining_);
    io(in_busy_);
  }

 private:
  SimTime busy_;
  SimTime idle_;
  int cycles_remaining_;
  bool in_busy_ = false;
  std::string name_;
};

// One compute burst of the given base cycles, then exit.
class ComputeOnceWorkload final : public Workload {
 public:
  explicit ComputeOnceWorkload(double base_cycles, MemoryProfile profile = {});

  const char* Name() const override { return "compute_once"; }
  Action Next(const WorkloadContext& ctx) override;
  MemoryProfile Profile() const override { return profile_; }

  bool done() const { return done_; }
  SimTime completed_at() const { return completed_at_; }

  void Snapshot(SnapshotIo& io) override { io(started_, done_, completed_at_); }

 private:
  double base_cycles_;
  MemoryProfile profile_;
  bool started_ = false;
  bool done_ = false;
  SimTime completed_at_;
};

// Alternates idle gaps (exponential, mean `idle_mean`) with compute bursts
// (exponential, mean `burst_ms_at_top` milliseconds at the top step).
class PoissonBurstWorkload final : public Workload {
 public:
  PoissonBurstWorkload(SimTime idle_mean, double burst_ms_at_top,
                       MemoryProfile profile = {});

  const char* Name() const override { return "poisson_bursts"; }
  Action Next(const WorkloadContext& ctx) override;
  MemoryProfile Profile() const override { return profile_; }

  void Snapshot(SnapshotIo& io) override { io(bursting_); }

 private:
  SimTime idle_mean_;
  double burst_ms_;
  MemoryProfile profile_;
  bool bursting_ = false;
};

}  // namespace dcs

#endif  // TESTS_SUPPORT_SYNTHETIC_WORKLOADS_H_
