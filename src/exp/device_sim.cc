#include "src/exp/device_sim.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace dcs {

namespace {

constexpr std::uint32_t kDeviceTag = 0x44455649u;  // "DEVI"

// The experiment seed drives every stochastic element: per-task workload
// jitter (via the kernel's forked RNG streams) and the DAQ noise in
// Finish().  A device nobody reads the sched log of gives it no capacity.
KernelConfig DeviceKernelConfig(const ExperimentConfig& config, bool sched_log) {
  KernelConfig kernel_config = config.kernel;
  kernel_config.rng_seed ^= config.seed * 0x9e3779b97f4a7c15ULL;
  if (!sched_log) {
    kernel_config.sched_log_capacity = 0;
  }
  return kernel_config;
}

AppBundle MakeBundle(const ExperimentConfig& config, DeadlineMonitor* deadlines) {
  if (config.app == "mpeg" && config.mpeg.has_value()) {
    return MakeMpegApp(*config.mpeg, deadlines, config.seed);
  }
  if (config.app == "server" && config.server.has_value()) {
    return MakeServerApp(*config.server, deadlines, config.seed);
  }
  return MakeApp(config.app, deadlines, config.seed);
}

}  // namespace

// The full result reads everything.  Fleet totals read none of the
// recordings, but an active fault plan's invariant checker walks the tape's
// segments (CheckTape) and attributes energy through the sched log, so it
// keeps both whatever the caller reads.
DeviceSim::Recording DeviceSim::RecordingFor(Reads reads, const ExperimentConfig& config) {
  FaultPlan plan;
  std::string error;
  const bool checked = FaultPlan::Parse(config.faults, &plan, &error) && plan.Active();
  const bool full = reads == Reads::kFullResult;
  return Recording{full || checked, (full && config.capture_obs) || checked, full};
}

DeviceSim::DeviceSim(const ExperimentConfig& config, Reads reads)
    : DeviceSim(config, AppBundle{}, nullptr, /*own_deadlines=*/true, reads) {}

DeviceSim::DeviceSim(const ExperimentConfig& config, AppBundle bundle,
                     DeadlineMonitor* deadlines, Reads reads)
    : DeviceSim(config, std::move(bundle), deadlines, /*own_deadlines=*/false, reads) {}

DeviceSim::DeviceSim(const ExperimentConfig& config, AppBundle bundle,
                     DeadlineMonitor* deadlines, bool own_deadlines, Reads reads)
    : config_(config),
      recording_(RecordingFor(reads, config_)),
      own_deadlines_(own_deadlines ? std::optional<DeadlineMonitor>(std::in_place)
                                   : std::nullopt),
      deadlines_(own_deadlines ? &*own_deadlines_ : deadlines),
      sim_(config_.arena),
      itsy_(sim_, config_.itsy, config_.arena),
      kernel_config_(DeviceKernelConfig(config_, recording_.sched_log)),
      kernel_(sim_, itsy_, kernel_config_, config_.arena),
      trigger_(kTriggerPin) {
  if (own_deadlines) {
    bundle = MakeBundle(config_, deadlines_);
  }
  app_name_ = bundle.name;
  app_duration_ = bundle.duration;

  sim_.BindCancel(config_.cancel);

  if (!recording_.tape_history) {
    itsy_.DropTapeHistory();
  }
  kernel_.RecordTraces(recording_.full_result);
  if (recording_.full_result) {
    // Bind the observability registry before the policy is installed so
    // governors can pick up their instruments in OnInstall.
    kernel_.BindMetrics(&metrics_);
    itsy_.BindMetrics(&metrics_);
  }

  std::string error;
  governor_ = MakeGovernorDispatch(config_.governor, &error);
  if (governor_.governor == nullptr && !error.empty()) {
    // An assert would vanish under NDEBUG and the run would silently proceed
    // without a policy; throwing lets the sweep engine fail just this job.
    throw std::invalid_argument("invalid governor spec '" + config_.governor +
                                "': " + error);
  }
  if (governor_.governor != nullptr) {
    kernel_.InstallPolicy(governor_.dispatch);
  }

  std::string fault_error;
  if (!FaultPlan::Parse(config_.faults, &fault_plan_, &fault_error)) {
    throw std::invalid_argument("invalid fault spec '" + config_.faults +
                                "': " + fault_error);
  }
  // The injector (and the invariant checker riding along) only exists for an
  // active plan: an inactive one must leave the event sequence — and thus the
  // sim.events_* metrics — untouched.
  if (fault_plan_.Active()) {
    injector_.emplace(fault_plan_, config_.seed);
    itsy_.BindFaults(&*injector_);
    kernel_.BindFaults(&*injector_);
    checker_.emplace(sim_, itsy_, kernel_);
    ArmCheckTick();
  }

  for (auto& task : bundle.tasks) {
    kernel_.AddTask(std::move(task));
  }

  duration_ = config_.duration.value_or(app_duration_ + SimTime::Seconds(2));
  // The measurement window is GPIO-triggered exactly like the paper's rig.
  trigger_.Attach(itsy_.gpio());
  itsy_.gpio().Toggle(kTriggerPin, sim_.Now());

  // Pre-size the per-quantum trace series so the tick path never reallocates.
  if (recording_.full_result && kernel_config_.quantum.nanos() > 0) {
    kernel_.ReserveTraces(
        static_cast<std::size_t>(duration_.nanos() / kernel_config_.quantum.nanos()));
  }
}

void DeviceSim::Start() { kernel_.Start(); }

void DeviceSim::CheckTick() {
  check_event_ = kInvalidEventId;
  checker_->Check();
  ArmCheckTick();
}

void DeviceSim::ArmCheckTick() {
  check_event_ = sim_.At<&DeviceSim::CheckTick>(sim_.Now() + kernel_config_.quantum, this);
}

ExperimentResult DeviceSim::Run() {
  Start();
  RunUntil(duration_);
  return Finish();
}

ExperimentResult DeviceSim::Finish() {
  if (!recording_.full_result) {
    throw std::logic_error("DeviceSim::Finish on a fleet-totals device, which records no result");
  }
  if (sim_.CancelRequested()) {
    // The watchdog pulled the token mid-run: everything below would report a
    // half-simulated experiment as if it finished.  Fail the job instead.
    throw CancelledError("experiment cancelled at simulated " + sim_.Now().ToString() +
                         " of " + duration_.ToString());
  }
  itsy_.gpio().Toggle(kTriggerPin, sim_.Now());
  itsy_.SyncBattery();

  ExperimentResult result;
  result.app = app_name_;
  result.governor = governor_.governor != nullptr ? governor_.governor->Name() : "none";
  result.duration = duration_;

  assert(trigger_.windows().size() == 1);
  const auto [begin, end] = trigger_.windows().front();
  DaqConfig daq_config = config_.daq;
  daq_config.seed ^= config_.seed * 0x9e3779b97f4a7c15ULL;
  Daq daq(daq_config, config_.arena);
  if (injector_) {
    daq.BindFaults(&*injector_);
  }
  const Daq::Totals totals = daq.Measure(itsy_.tape(), begin, end);
  result.energy_joules = totals.joules;
  result.exact_energy_joules = itsy_.tape().EnergyJoules(begin, end);
  result.average_watts = totals.average_watts;

  result.quanta = kernel_.quanta_elapsed();
  const TraceSeries* util = kernel_.sink().Find("utilization");
  if (util != nullptr && !util->empty()) {
    double sum = 0.0;
    for (const TracePoint& p : util->points()) {
      sum += p.value;
    }
    result.avg_utilization = sum / static_cast<double>(util->size());
  }
  result.clock_changes = itsy_.clock_changes();
  result.voltage_transitions = itsy_.voltage_transitions();
  result.total_stall = itsy_.total_stall();
  const auto& residency = kernel_.step_residency();
  const double total_s = duration_.ToSeconds();
  for (int k = 0; k < kNumClockSteps; ++k) {
    result.step_residency[static_cast<std::size_t>(k)] =
        total_s > 0.0 ? residency[static_cast<std::size_t>(k)].ToSeconds() / total_s : 0.0;
  }

  for (Pid pid = 1; Task* task = kernel_.FindTask(pid); ++pid) {
    result.task_cpu_seconds.emplace(std::to_string(pid) + ":" + task->name(),
                                    task->cpu_time().ToSeconds());
  }

  DeadlineMonitor& deadlines = *deadlines_;
  result.deadline_events = deadlines.TotalEvents();
  result.deadline_misses = deadlines.TotalMissed();
  result.worst_lateness = deadlines.WorstLateness();
  result.worst_overrun = deadlines.WorstOverrun();
  for (const std::string& stream : deadlines.Streams()) {
    result.streams.emplace(stream, deadlines.Stats(stream));
    // Streams with response-time tracking (ReportRequest) surface their
    // latency distribution through the metrics pipeline, so --metrics-out
    // carries p50/p95/p99/p999 without per-request artifacts.
    const DeadlineMonitor::StreamStats& stats = result.streams.at(stream);
    if (stats.latency_us.count() > 0) {
      metrics_.Histogram("latency_us." + stream).MergeFrom(stats.latency_us);
    }
    // Admission-gate outcomes, per stream.  Only touched when the gate
    // actually rejected something, so admission-free runs (every pre-existing
    // bench) render byte-identical metrics reports.
    if (stats.rejected > 0) {
      metrics_.Gauge("admission.reject_pct." + stream).Set(stats.RejectRate() * 100.0);
      if (stats.shed > 0) {
        metrics_.Gauge("admission.shed_pct." + stream)
            .Set(static_cast<double>(stats.shed) /
                 static_cast<double>(stats.total + stats.rejected) * 100.0);
      }
    }
  }
  const std::int64_t total_rejected = deadlines.TotalRejected();
  if (total_rejected > 0) {
    metrics_.Counter("exp.rejected_requests").Inc(static_cast<std::uint64_t>(total_rejected));
    metrics_.Counter("exp.shed_requests").Inc(static_cast<std::uint64_t>(deadlines.TotalShed()));
    // Energy-ledger attribution of the rejected work: it consumed zero
    // joules (conservation over executed work is untouched), so what the
    // gate bought is the *avoided* burn — the rejected full-speed-equivalent
    // microseconds priced at busy top-step/1.5 V processor power.
    const MetricsGauge* rejected_work = metrics_.FindGauge("admission.rejected_work_fs_us");
    if (rejected_work != nullptr) {
      const double watts = itsy_.power_model().ProcessorWatts(
          ExecState::kBusy, ClockTable::MaxStep(),
          VoltageVolts(CoreVoltage::kHigh));
      metrics_.Gauge("admission.rejected_energy_est_joules")
          .Set(rejected_work->value() * 1e-6 * watts);
    }
  }

  // Experiment- and simulator-level readings into the registry (simulated
  // state only — never wall-clock — to keep reports thread-count invariant).
  metrics_.Gauge("exp.energy_joules").Set(result.energy_joules);
  metrics_.Gauge("exp.exact_energy_joules").Set(result.exact_energy_joules);
  metrics_.Gauge("exp.average_watts").Set(result.average_watts);
  metrics_.Gauge("exp.avg_utilization").Set(result.avg_utilization);
  metrics_.Counter("exp.deadline_events").Inc(static_cast<std::uint64_t>(result.deadline_events));
  metrics_.Counter("exp.deadline_misses").Inc(static_cast<std::uint64_t>(result.deadline_misses));
  metrics_.Gauge("exp.worst_lateness_us").Set(result.worst_lateness.ToMicrosF());
  metrics_.Gauge("exp.total_stall_us").Set(result.total_stall.ToMicrosF());
  metrics_.Counter("sim.events_executed").Inc(sim_.events_executed());
  metrics_.Counter("sim.events_cancelled").Inc(sim_.events_cancelled());

  if (config_.capture_obs) {
    result.obs.captured = true;
    result.obs.window_begin = begin;
    result.obs.window_end = end;
    result.obs.sched = kernel_.sched_log().Snapshot();
    result.obs.power = itsy_.tape();
    result.obs.task_names.emplace(kIdlePid, "idle");
    for (Pid pid = 1; Task* task = kernel_.FindTask(pid); ++pid) {
      result.obs.task_names.emplace(pid, task->name());
    }
    result.obs.energy = EnergyLedger::Attribute(result.obs.power, result.obs.sched, begin, end);
    for (const auto& [pid, joules] : result.obs.energy.joules_by_pid) {
      metrics_.Gauge("energy.pid." + std::to_string(pid) + "." +
                     result.obs.task_names[pid] + "_joules")
          .Set(joules);
    }
  }

  if (checker_) {
    // One final structural sweep at end time, plus energy conservation over
    // the measurement window.
    checker_->Check();
    checker_->CheckEnergyConservation(kernel_.sched_log().Snapshot(), begin, end);

    FaultReport& report = result.faults;
    report.enabled = true;
    report.plan = fault_plan_.Describe();
    for (int k = 0; k < kNumFaultClasses; ++k) {
      const auto c = static_cast<FaultClass>(k);
      if (injector_->injected(c) > 0) {
        report.injected.emplace(FaultClassName(c), injector_->injected(c));
      }
    }
    report.injected_total = injector_->injected_total();
    report.transition_retries = kernel_.transition_retries();
    report.brownouts = itsy_.brownouts();
    report.dropped_samples = daq.dropped_samples();
    report.invariant_checks = checker_->checks();
    report.invariant_violations = checker_->violation_count();
    report.violations = checker_->violations();

    metrics_.Counter("fault.injected_total").Inc(report.injected_total);
    metrics_.Counter("fault.transition_retries").Inc(report.transition_retries);
    metrics_.Counter("fault.brownouts").Inc(static_cast<std::uint64_t>(report.brownouts));
    metrics_.Counter("fault.daq_dropped_samples").Inc(report.dropped_samples);
    metrics_.Counter("fault.invariant_checks").Inc(report.invariant_checks);
    metrics_.Counter("fault.invariant_violations").Inc(report.invariant_violations);
  }

  // The result keeps the points, not the run's worst-case reservation.
  result.sink = std::move(kernel_.sink());
  result.sink.Trim();
  // Unbind before the registry moves into the result: the kernel's and the
  // Itsy's cached instrument handles would otherwise dangle.
  kernel_.BindMetrics(nullptr);
  itsy_.BindMetrics(nullptr);
  result.metrics = std::move(metrics_);
  return result;
}

void DeviceSim::SaveState(SnapshotWriter* w) const {
  DeviceSim* self = const_cast<DeviceSim*>(this);
  SnapshotIo io(w, &self->sim_);
  self->Snapshot(io);
}

void DeviceSim::LoadState(SnapshotReader* r) {
  SnapshotIo io(r, &sim_);
  Snapshot(io);
}

void DeviceSim::Snapshot(SnapshotIo& io) {
  io.Tag(kDeviceTag);
  SimTime now = sim_.Now();
  std::uint64_t executed = sim_.events_executed();
  std::uint64_t cancelled = sim_.events_cancelled();
  io(now, executed, cancelled);
  if (io.loading()) {
    sim_.RestoreClock(now, executed, cancelled);
  }
  itsy_.Snapshot(io);
  kernel_.Snapshot(io);
  if (governor_.governor != nullptr) {
    governor_.governor->Snapshot(io);
  }
  if (!io.Expect(injector_.has_value())) {
    return;
  }
  if (injector_) {
    injector_->Snapshot(io);
    checker_->Snapshot(io);
    io.Pending<&DeviceSim::CheckTick>(check_event_, this);
  }
  trigger_.Snapshot(io);
  deadlines_->Snapshot(io);
  // Registry last: the kernel's load re-binds workload instruments (the
  // server admission gate Set()s its gauges there), so restoring the
  // registry afterwards makes the final gauge values exactly the image's.
  if (recording_.full_result) {
    metrics_.Snapshot(io);
  }
}

}  // namespace dcs
