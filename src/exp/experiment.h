// One end-to-end experiment: an application bundle running on a simulated
// Itsy under a governor, measured by the DAQ — the unit every bench and
// example is built from.

#ifndef SRC_EXP_EXPERIMENT_H_
#define SRC_EXP_EXPERIMENT_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/daq/daq.h"
#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/obs/energy_ledger.h"
#include "src/obs/metrics.h"
#include "src/workload/apps.h"
#include "src/workload/deadline_monitor.h"
#include "src/workload/server.h"

namespace dcs {

struct ExperimentConfig {
  // Application name ("mpeg" | "web" | "chess" | "editor" | "server").
  std::string app = "mpeg";
  // Governor spec (see governor_registry.h); "none" runs at the initial
  // clock step with no policy installed.
  std::string governor = "none";
  std::uint64_t seed = 1;
  // Override the app's natural duration (e.g. to truncate for plots).
  std::optional<SimTime> duration;
  // Custom MPEG configuration (only consulted when app == "mpeg").
  std::optional<MpegConfig> mpeg;
  // Custom server scenario (only consulted when app == "server").
  std::optional<ServerConfig> server;
  ItsyConfig itsy;
  KernelConfig kernel;
  DaqConfig daq;
  // Fault-injection spec (see fault_plan.h for the grammar).  "" or "none"
  // runs the exact pre-fault code path, byte for byte; anything else binds a
  // seeded FaultInjector to the hardware, kernel and DAQ and runs the
  // InvariantChecker every quantum.
  std::string faults;
  // When true, the result carries the raw observability capture (scheduler
  // log, power tape, energy attribution) needed to export a Chrome trace.
  // Off by default: the capture copies the full tape and log.
  bool capture_obs = false;
  // Cooperative cancellation token (non-owning; may be null).  When another
  // thread sets it, the simulator's event loop exits between events and
  // RunExperiment throws CancelledError instead of returning a partial
  // result.  Set by the campaign watchdog (--job-timeout); excluded from the
  // config fingerprint, since it changes how a job is run, not what it
  // computes.
  const std::atomic<bool>* cancel = nullptr;
  // Per-run bump arena for transient simulation state (non-owning; may be
  // null).  Sweep workers bind their arena here and Reset() it between
  // jobs, making the steady-state job cycle allocation-free.  Like `cancel`,
  // this changes how a job runs, not what it computes: results are
  // byte-identical with or without an arena, and the field is excluded from
  // the config fingerprint.
  Arena* arena = nullptr;
};

// Raw per-run capture for trace export and energy attribution, filled only
// when ExperimentConfig::capture_obs is set.  Everything here derives from
// the deterministic simulation, so captures (and anything rendered from
// them) are identical across sweep thread counts.
struct ObsCapture {
  bool captured = false;
  // The GPIO-triggered measurement window.
  SimTime window_begin;
  SimTime window_end;
  // Chronological scheduler activity (SchedLog::Snapshot()).
  std::vector<SchedLogEntry> sched;
  // Ground-truth piecewise-constant system power.
  PowerTape power;
  // Task names keyed by pid (kIdlePid -> "idle").
  std::map<Pid, std::string> task_names;
  // Joules per task / per clock step over the window.
  EnergyAttribution energy;
};

// Fault-injection outcome for one run; `enabled` is false (and everything
// else zero) unless the config carried an active fault plan.
struct FaultReport {
  bool enabled = false;
  // Canonical plan spec (FaultPlan::Describe()).
  std::string plan;
  // Injections that actually triggered, keyed by class name (zero entries
  // omitted), and their sum.
  std::map<std::string, std::uint64_t> injected;
  std::uint64_t injected_total = 0;
  // Consumer-side recovery counters.
  std::uint64_t transition_retries = 0;
  int brownouts = 0;
  std::uint64_t dropped_samples = 0;
  // InvariantChecker outcome: checks performed, violations found (with the
  // first stored messages).
  std::uint64_t invariant_checks = 0;
  std::uint64_t invariant_violations = 0;
  std::vector<std::string> violations;
};

struct ExperimentResult {
  std::string app;
  std::string governor;
  SimTime duration;

  // Energy over the run, through the DAQ pipeline (what the paper reports)
  // and exactly from the power tape (ground truth the DAQ approximates).
  double energy_joules = 0.0;
  double exact_energy_joules = 0.0;
  double average_watts = 0.0;

  // Scheduling statistics.
  double avg_utilization = 0.0;
  std::uint64_t quanta = 0;
  int clock_changes = 0;
  int voltage_transitions = 0;
  SimTime total_stall;
  // Fraction of wall time spent at each clock step.
  std::array<double, kNumClockSteps> step_residency{};

  // CPU seconds consumed by each task, keyed "pid:name".
  std::map<std::string, double> task_cpu_seconds;

  // Deadline outcome.  worst_lateness is measured past `deadline +
  // tolerance` (zero whenever deadline_misses is zero); worst_overrun is
  // measured past the bare deadline, so it stays a margin-erosion signal for
  // runs whose events land inside the tolerance window.
  std::int64_t deadline_events = 0;
  std::int64_t deadline_misses = 0;
  SimTime worst_lateness;
  SimTime worst_overrun;
  std::map<std::string, DeadlineMonitor::StreamStats> streams;

  // Recorded series ("utilization", "freq_mhz", "core_volts") for plotting.
  TraceSink sink;

  // Kernel/hardware/governor instruments for this run (always collected;
  // wall-clock free, so deterministic across thread counts).
  MetricsRegistry metrics;

  // Raw capture for Chrome trace export (see ExperimentConfig::capture_obs).
  ObsCapture obs;

  // Fault-injection outcome (FaultReport::enabled false on unfaulted runs).
  FaultReport faults;

  bool MetAllDeadlines() const { return deadline_misses == 0; }
};

// Runs one experiment.  Throws std::invalid_argument on an invalid governor
// spec, an invalid fault spec, or an unknown app name; under the sweep
// engine that fails the offending job while the rest of the grid completes.
ExperimentResult RunExperiment(const ExperimentConfig& config);

}  // namespace dcs

#endif  // SRC_EXP_EXPERIMENT_H_
