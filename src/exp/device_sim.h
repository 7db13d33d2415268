// One simulated device as a long-lived, snapshottable object.
//
// RunExperiment() historically built the whole stack (simulator, Itsy,
// kernel, governor, fault machinery, measurement rig) as locals, ran to
// completion and tore everything down — fine for one run, hopeless for a
// fleet of a million devices that share a warmup prefix.  DeviceSim is that
// same body split at its natural phase boundaries:
//
//     DeviceSim dev(config);     // build the stack (allocates)
//     dev.Start();               // arm the kernel, open the GPIO window
//     dev.RunUntil(t);           // advance simulated time (quiescent after)
//     dev.SaveState(&w);         // snapshot the complete device image
//     dev.LoadState(&r);         // rewind/fork from an image, in place
//     dev.Finish();              // measure + build the ExperimentResult
//
// The caller declares what it will read (Reads), and the device records
// only that (DESIGN §8).  kFullResult records everything Finish() reports;
// it is the constructor's default.  kSummary, what RunExperiment(config)
// runs, builds the same result less its trace series and metrics registry:
// the device keeps neither, reserves nothing per quantum, and averages
// utilization from the kernel's running sum.  A fleet worker declares
// kFleetTotals: it reads a handful of totals straight off the components,
// so its devices keep no power-tape history, sched log, trace series or
// metrics registry, and their images shrink to the state that drives the
// simulation.
//
// Run() stitches the phases back together and is what RunExperiment()
// wraps.
//
// Snapshots follow the src/sim/snapshot.h contract: save only at quiescent
// points (immediately after RunUntil returns), restore onto a stack built
// from the *same* ExperimentConfig.  LoadState is one pass over the image:
// rewinding the clock clears every timer slot the previous occupant left
// armed, and every component then loads and re-arms its slots at their saved
// time and sequence — so one DeviceSim instance can cycle through thousands
// of fleet devices with no steady-state allocation
// (tests/hotpath/alloc_steadystate_test.cc locks the cycle down).
//
// Finish() is destructive (a full result takes the trace sink and metrics
// registry) and may be called once; a kFleetTotals device has no result to
// build, so its Finish() throws.

#ifndef SRC_EXP_DEVICE_SIM_H_
#define SRC_EXP_DEVICE_SIM_H_

#include <functional>
#include <optional>
#include <string>

#include "src/core/governor_registry.h"
#include "src/daq/daq.h"
#include "src/exp/experiment.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/fault/invariants.h"
#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/sim/snapshot.h"
#include "src/workload/apps.h"
#include "src/workload/deadline_monitor.h"

namespace dcs {

class DeviceSim {
 public:
  // The paper's measurement-window trigger wire.
  static constexpr int kTriggerPin = 5;

  // What the caller reads from the device (src/exp/experiment.h).
  // kSummary: Finish()'s result without series or registry (RunExperiment).
  // kFullResult: all of it (sweeps, tests and traced benchmark passes).
  // kFleetTotals: FleetRunner's per-device totals, read off the components
  // after RunUntil: tape().EnergyJoules(0, now), the deadline monitor's
  // totals, quanta, clock changes and the battery's death.  A fault plan's
  // invariant checker still gets the tape history and sched log it walks.
  using Reads = ExperimentReads;

  // Builds the device from `config`, constructing the application bundle the
  // way RunExperiment(config) did (app/mpeg/server selection) with an owned
  // deadline monitor.  Throws std::invalid_argument on a bad governor, fault
  // or app spec.
  explicit DeviceSim(const ExperimentConfig& config, Reads reads = Reads::kFullResult);

  // Same, with a caller-built bundle reporting to an external monitor
  // (`deadlines` must outlive the DeviceSim).  `config.app` / `.mpeg` /
  // `.server` are ignored.
  DeviceSim(const ExperimentConfig& config, AppBundle bundle, DeadlineMonitor* deadlines,
            Reads reads = Reads::kFullResult);

  DeviceSim(const DeviceSim&) = delete;
  DeviceSim& operator=(const DeviceSim&) = delete;

  // Arms the kernel (clock interrupt + first dispatch).  Call once on a
  // freshly built device; restored devices resume already-started.
  void Start();

  // Advances simulated time; the device is quiescent when this returns.
  void RunUntil(SimTime t) { sim_.RunUntil(t); }

  // Closes the measurement window, runs the DAQ pipeline and assembles the
  // ExperimentResult.  Destructive (a full result takes the sink and
  // metrics); call at most once, and don't snapshot afterwards.  Throws
  // CancelledError when the cancellation token was pulled mid-run, and
  // std::logic_error on a kFleetTotals device.
  ExperimentResult Finish();

  // Start + RunUntil(duration()) + Finish: the full RunExperiment sequence.
  ExperimentResult Run();

  // --- Device snapshots ----------------------------------------------------
  // Complete device image at a quiescent point: simulator clock, hardware,
  // kernel (tasks, workloads, armed timer slots), governor, fault machinery,
  // measurement trigger, deadline monitor and metrics registry — less
  // whatever the declared Reads leave unrecorded; a summary image ends with
  // the kernel's utilization sum where a full one ends with the registry.
  // Snapshot is the one description; SaveState and LoadState run it.  A load
  // restores in place, in one pass: it rewinds the clock, which clears every
  // timer slot, then loads every component (metrics last — workload re-binds
  // touch gauges), each re-arming its slots at their saved time and
  // sequence.  A save right after a load writes the image loaded.  The
  // target must be built from the same config and Reads as the image's
  // source; reader ok() reports image/stack mismatches.
  void SaveState(SnapshotWriter* w) const;
  void LoadState(SnapshotReader* r);
  void Snapshot(SnapshotIo& io);

  // --- Accessors (fleet aggregation, tests) --------------------------------
  SimTime duration() const { return duration_; }
  Simulator& sim() { return sim_; }
  Itsy& itsy() { return itsy_; }
  Kernel& kernel() { return kernel_; }
  MetricsRegistry& metrics() { return metrics_; }
  DeadlineMonitor& deadlines() { return *deadlines_; }
  const std::string& app_name() const { return app_name_; }
  ClockPolicy* governor() { return governor_.governor.get(); }
  // The fault plan's invariant checker; null when no plan is active.
  const InvariantChecker* checker() const { return checker_ ? &*checker_ : nullptr; }

 private:
  // What the device records: RecordingFor derives it from the caller's Reads
  // and from whether the fault plan arms the invariant checker.
  struct Recording {
    bool tape_history;  // every power-tape segment, not just the last two
    bool sched_log;     // the kernel's scheduler activity ring
    bool result;        // Finish() builds an ExperimentResult
    bool full_result;   // trace series and metrics registry
  };
  static Recording RecordingFor(Reads reads, const ExperimentConfig& config);

  // Finish()'s readings into the metrics registry of a full result.
  void WriteMetrics(const ExperimentResult& result);

  DeviceSim(const ExperimentConfig& config, AppBundle bundle, DeadlineMonitor* deadlines,
            bool own_deadlines, Reads reads);

  // Invariant sweep for faulted runs: checks, then re-arms itself one
  // quantum later (the old RunExperiment check_tick closure).
  void CheckTick();
  void ArmCheckTick();

  ExperimentConfig config_;
  Recording recording_;
  std::optional<DeadlineMonitor> own_deadlines_;
  DeadlineMonitor* deadlines_;
  std::string app_name_;
  SimTime app_duration_;
  Simulator sim_;
  Itsy itsy_;
  KernelConfig kernel_config_;
  Kernel kernel_;
  MetricsRegistry metrics_;
  GovernorHandle governor_;
  FaultPlan fault_plan_;
  std::optional<FaultInjector> injector_;
  std::optional<InvariantChecker> checker_;
  // The invariant sweep's timer slot, registered only with an active plan.
  std::size_t check_timer_ = 0;
  GpioTrigger trigger_;
  SimTime duration_;
};

}  // namespace dcs

#endif  // SRC_EXP_DEVICE_SIM_H_
