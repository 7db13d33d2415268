// Benchmark harness: runs one workload family of the simulator for a fixed
// host-time budget and prints the raw measurements as one JSON line.
//
//   dcs_bench --workload paper_sweep|fleet_clone|server_openloop
//             --seed N --seconds S --trace 0|1
//
// Untraced passes drive the program through its public entry points
// (SweepRunner, FleetRunner) and time each job from outside.  With
// --trace 1, traced passes alternate with untraced ones: they drive the same
// jobs through DeviceSim's public phases, with a timing PolicyDispatch thunk
// on the governor and a timing decorator around every workload task, and
// report host time and counts per layer.  Every pass checks its simulated
// results: passes must agree with each other, traced passes with untraced
// ones, and fleet reports across worker counts.  Every timed job and set-up
// is preceded by a host probe, a fixed computation outside the program,
// whose time run.py uses to correct the job's time for the host's speed at
// that moment.  perfbench/run.py turns the raw output into the benchmark's
// metrics; perfbench/README.md explains them.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/daq/daq.h"
#include "src/exp/device_sim.h"
#include "src/exp/experiment.h"
#include "src/exp/fleet.h"
#include "src/exp/sweep.h"
#include "src/kernel/policy.h"
#include "src/kernel/workload_api.h"
#include "src/obs/metrics.h"
#include "src/sim/arena.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/workload/apps.h"
#include "src/workload/server.h"

#ifndef DCS_BENCH_BUILD_TYPE
#define DCS_BENCH_BUILD_TYPE "unspecified"
#endif

namespace dcs {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The host probe: a fixed amount of work that does not depend on the
// program, about 1 ms on an idle 4-vCPU Xeon.  It is Box-Muller over a
// xorshift stream, the same libm calls the DAQ spends its time in, so that
// it slows down with the program when other tenants load the host.
// Returns its time in ms.
volatile double host_probe_sink = 0.0;

double HostProbeMs() {
  static std::vector<double> buffer(2048);
  const auto t0 = Clock::now();
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  double sum = 0.0;
  for (int rep = 0; rep < 16; ++rep) {
    for (double& x : buffer) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      x = static_cast<double>(state >> 11) * 0x1p-53 + 1e-300;
    }
    for (double& x : buffer) {
      x = std::sqrt(-2.0 * std::log(x)) * std::cos(6.283185307179586 * x);
    }
    for (const double x : buffer) {
      sum += x;
    }
  }
  host_probe_sink = sum;
  return Since(t0) * 1e3;
}

std::uint64_t NanosSince(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

// splitmix64 finalizer; also the seed derivation src/exp/fleet.cc uses for
// its battery-jitter stream, which the traced fleet pass reproduces.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- Digests ------------------------------------------------------------------

// FNV-1a over raw bytes.  Doubles hash by bit pattern, so any change in a
// simulated value changes the digest.
class Fnv {
 public:
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void I64(std::int64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Every simulated statistic an ExperimentResult reports.  The recorded
// series and the metrics registry are left out: they are recordings whose
// presence is an output choice, not simulated outcomes.
std::uint64_t ResultDigest(const ExperimentResult& r) {
  Fnv d;
  d.Str(r.app);
  d.Str(r.governor);
  d.I64(r.duration.nanos());
  d.F64(r.energy_joules);
  d.F64(r.exact_energy_joules);
  d.F64(r.average_watts);
  d.F64(r.avg_utilization);
  d.U64(r.quanta);
  d.I64(r.clock_changes);
  d.I64(r.voltage_transitions);
  d.I64(r.total_stall.nanos());
  for (const double s : r.step_residency) {
    d.F64(s);
  }
  for (const auto& [task, seconds] : r.task_cpu_seconds) {
    d.Str(task);
    d.F64(seconds);
  }
  d.I64(r.deadline_events);
  d.I64(r.deadline_misses);
  d.I64(r.worst_lateness.nanos());
  d.I64(r.worst_overrun.nanos());
  for (const auto& [name, s] : r.streams) {
    d.Str(name);
    d.I64(s.total);
    d.I64(s.missed);
    d.I64(s.rejected);
    d.I64(s.shed);
    d.I64(s.worst_lateness.nanos());
    d.I64(s.total_lateness.nanos());
    d.I64(s.worst_overrun.nanos());
    d.U64(s.latency_us.count());
    d.F64(s.latency_us.sum());
  }
  return d.value();
}

std::uint64_t StringDigest(const std::string& s) {
  Fnv d;
  d.Str(s);
  return d.value();
}

// Fingerprint of what bit-exact results depend on besides the sources: the
// compiler and the libm functions the simulation draws its variates through.
// Digests are only compared with a stored reference when this matches.
std::uint64_t PlatformFingerprint() {
  Fnv d;
  d.Str(__VERSION__);
  volatile double start = 0.5;  // keeps the calls out of constant folding
  double x = start;
  for (int i = 0; i < 4096; ++i) {
    x = x * 1.0009765625 + 0.001;
    d.F64(std::log(x));
    d.F64(std::cos(6.283185307179586 * x));
    d.F64(std::exp(-x));
    d.F64(std::pow(x, 1.5));
    d.F64(std::sqrt(x));
  }
  return d.value();
}

// --- Workloads ------------------------------------------------------------------

enum class Family { kPaper, kFleet, kServer };

// The paper's four apps under fixed anchors, the paper's PAST and AVG_N
// interval policies, and two Linux-style governors.  Each app runs for its
// nominal length plus the usual 2 s tail, pinned so that a job's length does
// not vary with the seed's trace.
constexpr const char* kPaperApps[] = {"mpeg", "web", "chess", "editor"};
constexpr std::int64_t kPaperSeconds[] = {62, 192, 220, 72};
constexpr const char* kPaperGovernors[] = {
    "fixed-206.4",        "fixed-132.7@1.23",   "PAST-peg-peg-93-98", "AVG3-one-one-50-70",
    "AVG9-one-one-50-70", "ondemand",           "schedutil"};
// Each app x governor pair runs on this many traces, 112 jobs in all, so that
// job_ms_p90 can stand on one run of each job.  The short apps run on more
// traces than the long ones, which puts the median job inside the editor
// jobs rather than in the gap between the short and the long apps, where it
// moved with the seed.
constexpr int kPaperTraces[] = {5, 3, 3, 5};

// Open-loop server: three arrival grammars at a feasible and an overload
// rate, feedback admission, under five governors.
constexpr ArrivalProcess kArrivals[] = {ArrivalProcess::kPoisson, ArrivalProcess::kBursty,
                                        ArrivalProcess::kSelfSimilar};
constexpr double kServerRates[] = {80.0, 320.0};
constexpr const char* kServerGovernors[] = {"fixed-132.7@1.23", "PAST-peg-peg-93-98-vs",
                                            "AVG9-one-one-50-70", "pid-vs", "deadline-vs"};

// Fleets: two per governor (different fleet seeds), each a mpeg/web/server
// mix.
constexpr const char* kFleetGovernors[] = {"fixed-132.7", "pid-vs", "adaptive-vs", "deadline-vs"};
constexpr int kFleetsPerGovernor = 2;
// Fleets run on one worker: on a shared 4-vCPU host, a second worker's time
// depended on what the other tenants ran on its vCPU, which the probe on
// the first cannot see.  The worker check reruns them on two.
constexpr int kFleetThreads = 1;
constexpr int kFleetCheckThreads = 2;

std::uint64_t JobSeed(std::uint64_t seed, std::size_t index) {
  return Mix(seed ^ Mix(static_cast<std::uint64_t>(index) + 1));
}

std::vector<ExperimentConfig> PaperGrid(std::uint64_t seed) {
  std::vector<ExperimentConfig> grid;
  const int traces = *std::max_element(std::begin(kPaperTraces), std::end(kPaperTraces));
  for (int trace = 0; trace < traces; ++trace) {
    for (std::size_t a = 0; a < std::size(kPaperApps); ++a) {
      if (trace >= kPaperTraces[a]) {
        continue;
      }
      for (const char* governor : kPaperGovernors) {
        ExperimentConfig config;
        config.app = kPaperApps[a];
        config.duration = SimTime::Seconds(kPaperSeconds[a]);
        config.governor = governor;
        config.seed = JobSeed(seed, grid.size());
        grid.push_back(config);
      }
    }
  }
  return grid;
}

std::vector<ExperimentConfig> ServerGrid(std::uint64_t seed) {
  std::vector<ExperimentConfig> grid;
  for (const ArrivalProcess arrivals : kArrivals) {
    for (const double rate : kServerRates) {
      for (const char* governor : kServerGovernors) {
        ServerConfig server;
        server.arrivals = arrivals;
        server.rate_rps = rate;
        server.duration = SimTime::Seconds(30);
        server.slo = SimTime::Millis(50);
        server.admission.policy = AdmissionPolicy::kFeedback;
        ExperimentConfig config;
        config.app = "server";
        config.server = server;
        config.governor = governor;
        config.seed = JobSeed(seed, grid.size());
        grid.push_back(config);
      }
    }
  }
  return grid;
}

std::vector<FleetSpec> FleetGrid(std::uint64_t seed) {
  std::vector<FleetSpec> grid;
  for (int i = 0; i < kFleetsPerGovernor * static_cast<int>(std::size(kFleetGovernors)); ++i) {
    FleetSpec spec;
    spec.devices = 2048;
    spec.shard_devices = 256;
    spec.seed = JobSeed(seed, grid.size());
    spec.apps = {{"mpeg", 2.0}, {"web", 1.0}, {"server", 1.0}};
    spec.base.governor = kFleetGovernors[i % std::size(kFleetGovernors)];
    spec.base.itsy.battery = BatteryParams{};
    spec.warmup = SimTime::Seconds(2);
    spec.duration = SimTime::Seconds(3);
    spec.jitter.battery_capacity = 0.1;
    grid.push_back(spec);
  }
  return grid;
}

// DeviceSim's own bundle selection, rebuilt here so each task can be wrapped
// before the device takes ownership.
AppBundle MakeBundle(const ExperimentConfig& config, DeadlineMonitor* deadlines) {
  if (config.app == "mpeg" && config.mpeg.has_value()) {
    return MakeMpegApp(*config.mpeg, deadlines, config.seed);
  }
  if (config.app == "server" && config.server.has_value()) {
    return MakeServerApp(*config.server, deadlines, config.seed);
  }
  return MakeApp(config.app, deadlines, config.seed);
}

// --- Layer timing -----------------------------------------------------------------

// Per-layer totals of one traced pass (or of one job, summed into a pass).
struct Layers {
  double build_s = 0.0;    // bundle + DeviceSim construction
  double run_s = 0.0;      // Start + RunUntil (fleet: warmup and device tails)
  double finish_s = 0.0;   // DeviceSim::Finish
  double warmup_s = 0.0;   // run time up to the snapshot point
  double save_s = 0.0;     // DeviceSim::SaveState
  double restore_s = 0.0;  // DeviceSim::LoadState
  double fold_s = 0.0;     // merging result registries and rendering them
  double daq_s = 0.0;      // Daq::SampleWindow
  double busy_s = 0.0;     // worker time inside jobs
  std::uint64_t governor_ns = 0;
  std::uint64_t next_ns = 0;
  std::uint64_t restores = 0;
  std::uint64_t image_bytes = 0;
  std::uint64_t images = 0;
  std::uint64_t daq_samples = 0;
  std::uint64_t decisions = 0;
  std::uint64_t changes = 0;
  std::uint64_t next_calls = 0;
  std::uint64_t requests = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t quanta = 0;
  std::uint64_t tape_segments = 0;

  void Add(const Layers& o) {
    build_s += o.build_s;
    run_s += o.run_s;
    finish_s += o.finish_s;
    warmup_s += o.warmup_s;
    save_s += o.save_s;
    restore_s += o.restore_s;
    fold_s += o.fold_s;
    daq_s += o.daq_s;
    busy_s += o.busy_s;
    governor_ns += o.governor_ns;
    next_ns += o.next_ns;
    restores += o.restores;
    image_bytes += o.image_bytes;
    images += o.images;
    daq_samples += o.daq_samples;
    decisions += o.decisions;
    changes += o.changes;
    next_calls += o.next_calls;
    requests += o.requests;
    rejected += o.rejected;
    shed += o.shed;
    events += o.events;
    cancelled += o.cancelled;
    quanta += o.quanta;
    tape_segments += o.tape_segments;
  }
};

// Governor time, per worker thread.  PolicyDispatch carries a plain function
// pointer, so the thunk has nowhere else to put it; jobs read the delta.
struct GovernorClock {
  std::uint64_t ns = 0;
  std::uint64_t decisions = 0;
  std::uint64_t changes = 0;
};
thread_local GovernorClock tl_governor;

std::optional<SpeedRequest> TimedOnQuantum(ClockPolicy* policy, const UtilizationSample& sample) {
  const auto t0 = Clock::now();
  std::optional<SpeedRequest> request = policy->OnQuantum(sample);
  tl_governor.ns += NanosSince(t0);
  ++tl_governor.decisions;
  if (request.has_value() && request->step.has_value() && *request->step != sample.step) {
    ++tl_governor.changes;
  }
  return request;
}

void AddGovernorDelta(const GovernorClock& before, Layers* layers) {
  layers->governor_ns += tl_governor.ns - before.ns;
  layers->decisions += tl_governor.decisions - before.decisions;
  layers->changes += tl_governor.changes - before.changes;
}

// Times Workload::Next of the wrapped task; forwards everything else.
class TimedWorkload final : public Workload {
 public:
  TimedWorkload(std::unique_ptr<Workload> inner, Layers* layers)
      : inner_(std::move(inner)), layers_(layers) {}

  const char* Name() const override { return inner_->Name(); }
  Action Next(const WorkloadContext& ctx) override {
    const auto t0 = Clock::now();
    Action action = inner_->Next(ctx);
    layers_->next_ns += NanosSince(t0);
    ++layers_->next_calls;
    return action;
  }
  MemoryProfile Profile() const override { return inner_->Profile(); }
  void SaveState(SnapshotWriter* w) const override { inner_->SaveState(w); }
  void LoadState(SnapshotReader* r, Kernel* kernel) override { inner_->LoadState(r, kernel); }

 private:
  std::unique_ptr<Workload> inner_;
  Layers* layers_;
};

// The program's DeviceSim, built from a bundle whose tasks are wrapped in
// TimedWorkload and with the timing thunk installed on its governor.
class TracedDevice {
 public:
  TracedDevice(const ExperimentConfig& config, Layers* layers) {
    const auto t0 = Clock::now();
    AppBundle bundle = MakeBundle(config, &monitor_);
    for (auto& task : bundle.tasks) {
      task = std::make_unique<TimedWorkload>(std::move(task), layers);
    }
    dev_.emplace(config, std::move(bundle), &monitor_);
    if (ClockPolicy* policy = dev_->governor(); policy != nullptr) {
      PolicyDispatch timed;
      timed.policy = policy;
      timed.on_quantum = &TimedOnQuantum;
      dev_->kernel().InstallPolicy(timed);
    }
    layers->build_s += Since(t0);
  }
  TracedDevice(const TracedDevice&) = delete;
  TracedDevice& operator=(const TracedDevice&) = delete;

  DeviceSim& dev() { return *dev_; }
  const DeadlineMonitor& monitor() const { return monitor_; }

 private:
  DeadlineMonitor monitor_;
  std::optional<DeviceSim> dev_;
};

void CountWorkload(const DeadlineMonitor& monitor, Layers* layers) {
  layers->requests += static_cast<std::uint64_t>(monitor.TotalEvents());
  layers->rejected += static_cast<std::uint64_t>(monitor.TotalRejected());
  layers->shed += static_cast<std::uint64_t>(monitor.TotalShed());
}

// Samples [begin, end) of the device's power tape with a DAQ and returns
// the energy it reads.
double TimedDaqRead(const DaqConfig& config, DeviceSim& dev, SimTime begin, SimTime end,
                    Layers* layers) {
  Daq daq(config);
  const auto t0 = Clock::now();
  const std::span<const double> samples = daq.SampleWindow(dev.itsy().tape(), begin, end);
  layers->daq_s += Since(t0);
  layers->daq_samples += samples.size();
  return daq.EnergyJoules(samples);
}

bool Near(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b)) + 1e-12;
}

// One sweep job, traced.  Besides the timed phases it runs two probes whose
// time is reported separately: a snapshot round trip at mid-run (the run
// must still end exactly as the untraced one does) and a second DAQ read of
// the measurement window, which must agree with the result's DAQ energy.
ExperimentResult RunTracedJob(const ExperimentConfig& config, Arena* arena, Layers* layers) {
  ExperimentConfig job = config;
  job.arena = arena;
  arena->Reset();
  TracedDevice traced(job, layers);
  DeviceSim& dev = traced.dev();
  const GovernorClock governor_before = tl_governor;

  auto t0 = Clock::now();
  dev.Start();
  dev.RunUntil(dev.duration() / 2);
  const double first_half = Since(t0);

  t0 = Clock::now();
  SnapshotWriter image;
  dev.SaveState(&image);
  layers->save_s += Since(t0);
  t0 = Clock::now();
  SnapshotReader reader(image);
  dev.LoadState(&reader);
  layers->restore_s += Since(t0);
  if (!reader.ok()) {
    throw std::runtime_error("mid-run snapshot failed to restore");
  }
  layers->restores += 1;
  layers->image_bytes += image.size();
  layers->images += 1;

  t0 = Clock::now();
  dev.RunUntil(dev.duration());
  layers->run_s += first_half + Since(t0);
  layers->warmup_s += first_half;
  AddGovernorDelta(governor_before, layers);

  t0 = Clock::now();
  ExperimentResult result = dev.Finish();
  layers->finish_s += Since(t0);

  // Finish() seeds its DAQ from the experiment seed the same way.
  DaqConfig daq_config = job.daq;
  daq_config.seed ^= job.seed * 0x9e3779b97f4a7c15ULL;
  const double daq_joules =
      TimedDaqRead(daq_config, dev, SimTime::Zero(), dev.sim().Now(), layers);
  if (!Near(daq_joules, result.energy_joules, 1e-5)) {
    throw std::runtime_error("DAQ re-read disagrees with the result's DAQ energy");
  }

  layers->events += dev.sim().events_executed();
  layers->cancelled += dev.sim().events_cancelled();
  layers->quanta += dev.kernel().quanta_elapsed();
  layers->tape_segments += dev.itsy().tape().segments().size();
  CountWorkload(traced.monitor(), layers);
  return result;
}

// Exact fleet totals the traced pass must reproduce from the untraced
// FleetRunner report.
struct FleetTotals {
  std::uint64_t devices = 0;
  std::uint64_t energy_uj = 0;
  std::uint64_t deadline_events = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t deadline_rejected = 0;
  std::uint64_t deadline_shed = 0;
  std::uint64_t battery_deaths = 0;
  std::uint64_t quanta = 0;
  std::uint64_t clock_changes = 0;

  bool operator==(const FleetTotals&) const = default;

  void Add(const FleetTotals& o) {
    devices += o.devices;
    energy_uj += o.energy_uj;
    deadline_events += o.deadline_events;
    deadline_misses += o.deadline_misses;
    deadline_rejected += o.deadline_rejected;
    deadline_shed += o.deadline_shed;
    battery_deaths += o.battery_deaths;
    quanta += o.quanta;
    clock_changes += o.clock_changes;
  }

  static FleetTotals FromReport(const FleetReport& report) {
    const MetricsCounter* energy = report.merged.FindCounter("fleet.energy_uj");
    FleetTotals t;
    t.devices = report.devices;
    t.energy_uj = energy == nullptr ? 0 : energy->value();
    t.deadline_events = report.deadline_events;
    t.deadline_misses = report.deadline_misses;
    t.deadline_rejected = report.deadline_rejected;
    t.deadline_shed = report.deadline_shed;
    t.battery_deaths = report.battery_deaths;
    t.quanta = report.quanta;
    t.clock_changes = report.clock_changes;
    return t;
  }

  void ExportTo(MetricsRegistry* m) const {
    m->Counter("fleet.devices").Inc(devices);
    m->Counter("fleet.energy_uj").Inc(energy_uj);
    m->Counter("fleet.deadline_events").Inc(deadline_events);
    m->Counter("fleet.deadline_misses").Inc(deadline_misses);
    m->Counter("fleet.deadline_rejected").Inc(deadline_rejected);
    m->Counter("fleet.deadline_shed").Inc(deadline_shed);
    m->Counter("fleet.battery_deaths").Inc(battery_deaths);
    m->Counter("fleet.quanta").Inc(quanta);
    m->Counter("fleet.clock_changes").Inc(clock_changes);
  }
};

// Battery-jitter stream tag of src/exp/fleet.cc.
constexpr std::uint64_t kBatteryJitterTag = 0xba77e21fULL;

// One fleet shard, traced: the same devices FleetRunner::RunShard simulates
// (cell warmup, snapshot, then restore + fork + tail per device), driven
// through DeviceSim's public phases.  The DAQ reads the cell's shared
// warmup window once as a probe; FleetRunner itself never samples.
FleetTotals RunTracedShard(const FleetSpec& spec, const FleetCell& cell, const FleetShard& shard,
                           Arena* arena, Layers* layers, MetricsRegistry* shard_metrics) {
  ExperimentConfig config = spec.base;
  config.app = cell.app;
  config.duration = spec.duration;
  config.seed = cell.cell_seed;
  config.arena = arena;
  if (cell.app == "server") {
    if (!config.server.has_value()) {
      config.server.emplace();
    }
    config.server->rate_rps *= cell.rate_scale;
    config.server->duration = spec.duration;
  }
  arena->Reset();
  TracedDevice traced(config, layers);
  DeviceSim& dev = traced.dev();
  const GovernorClock governor_before = tl_governor;

  auto t0 = Clock::now();
  dev.Start();
  dev.RunUntil(spec.warmup);
  const double warm = Since(t0);
  layers->warmup_s += warm;
  layers->run_s += warm;
  layers->events += dev.sim().events_executed();
  layers->cancelled += dev.sim().events_cancelled();
  layers->quanta += dev.kernel().quanta_elapsed();

  const double daq_joules = TimedDaqRead(config.daq, dev, SimTime::Zero(), spec.warmup, layers);
  if (!Near(daq_joules, dev.itsy().tape().EnergyJoules(SimTime::Zero(), spec.warmup), 0.02)) {
    throw std::runtime_error("DAQ reading of the warmup window disagrees with the tape");
  }

  t0 = Clock::now();
  SnapshotWriter image;
  dev.SaveState(&image);
  layers->save_s += Since(t0);
  layers->image_bytes += image.size();
  layers->images += 1;
  const std::uint64_t image_events = dev.sim().events_executed();
  const std::uint64_t image_cancelled = dev.sim().events_cancelled();
  const std::uint64_t image_quanta = dev.kernel().quanta_elapsed();

  const Rng battery_jitter_base(Mix(spec.seed ^ kBatteryJitterTag));
  const bool jitter_battery =
      spec.jitter.battery_capacity > 0.0 && config.itsy.battery.has_value();

  FleetTotals totals;
  LogHistogram& device_energy = shard_metrics->Histogram("fleet.device_energy_uj");
  for (std::uint64_t d = 0; d < shard.count; ++d) {
    const std::uint64_t device_id = shard.first_device + d;
    t0 = Clock::now();
    SnapshotReader reader(image);
    dev.LoadState(&reader);
    layers->restore_s += Since(t0);
    layers->restores += 1;
    if (!reader.ok()) {
      throw std::runtime_error("fleet device image failed to restore");
    }
    dev.kernel().ForkRngs(device_id);
    if (jitter_battery) {
      Rng jitter_rng = battery_jitter_base.Fork(device_id);
      const double j = spec.jitter.battery_capacity;
      BatteryParams params = *config.itsy.battery;
      params.peukert_capacity *= 1.0 + jitter_rng.Uniform(-j, j);
      dev.itsy().battery()->SetParams(params);
    }

    t0 = Clock::now();
    dev.RunUntil(dev.duration());
    layers->run_s += Since(t0);
    dev.itsy().SyncBattery();

    const double energy_j = dev.itsy().tape().EnergyJoules(SimTime::Zero(), dev.sim().Now());
    const auto energy_uj = static_cast<std::uint64_t>(std::llround(energy_j * 1e6));
    const DeadlineMonitor& monitor = traced.monitor();
    totals.devices += 1;
    totals.energy_uj += energy_uj;
    totals.deadline_events += static_cast<std::uint64_t>(monitor.TotalEvents());
    totals.deadline_misses += static_cast<std::uint64_t>(monitor.TotalMissed());
    totals.deadline_rejected += static_cast<std::uint64_t>(monitor.TotalRejected());
    totals.deadline_shed += static_cast<std::uint64_t>(monitor.TotalShed());
    totals.quanta += dev.kernel().quanta_elapsed();
    totals.clock_changes += static_cast<std::uint64_t>(dev.itsy().clock_changes());
    if (const Battery* battery = dev.itsy().battery(); battery != nullptr && battery->Died()) {
      totals.battery_deaths += 1;
    }
    device_energy.Observe(static_cast<double>(energy_uj));

    layers->events += dev.sim().events_executed() - image_events;
    layers->cancelled += dev.sim().events_cancelled() - image_cancelled;
    layers->quanta += dev.kernel().quanta_elapsed() - image_quanta;
    layers->tape_segments += dev.itsy().tape().segments().size();
    CountWorkload(monitor, layers);
  }
  AddGovernorDelta(governor_before, layers);
  totals.ExportTo(shard_metrics);
  return totals;
}

// --- Passes -----------------------------------------------------------------------

// One pass over the workload's jobs.  The per-job vectors are indexed by
// job; a failed job has digest 0, time -1 and no simulated output.
struct Pass {
  double wall_s = 0.0;
  std::vector<double> job_ms;
  std::vector<double> job_sim_s;               // simulated device-seconds
  std::vector<std::uint64_t> job_devices;      // devices completed
  std::vector<std::uint64_t> digests;
  std::vector<double> host_probe_ms;           // host probe just before each job
  int failed = 0;

  void AddFailed() {
    job_ms.push_back(-1.0);
    job_sim_s.push_back(0.0);
    job_devices.push_back(0);
    digests.push_back(0);
    failed += 1;
  }
};

struct TracedPass {
  Layers layers;
  double wall_s = 0.0;
  double probe_s = 0.0;   // probe work that the untraced pass does not do
  double device_s = 0.0;  // host time inside the device phases
  int threads = 1;
  std::vector<std::uint64_t> digests;
  std::vector<FleetTotals> fleet_totals;
  int failed = 0;
};

class Harness {
 public:
  Harness(Family family, std::uint64_t seed) : family_(family), seed_(seed) {}

  int threads() const { return family_ == Family::kFleet ? kFleetThreads : 1; }

  // One set-up: what a run pays before its first timed job.  It builds the
  // grid and runs its longest job on a fresh arena, which warms the arena
  // and the process's lazily initialised state; the passes after it use that
  // arena.  The first set-up also picks the longest job.  Fleets plan every
  // fleet and run the first one: their worker arenas live only as long as
  // each Run(), so there is no arena to carry over.
  double SetUp() {
    const auto t0 = Clock::now();
    if (family_ == Family::kFleet) {
      fleets_ = FleetGrid(seed_);
      for (const FleetSpec& spec : fleets_) {
        FleetRunner planner(spec, SweepOptions{});
        planner.Plan();
      }
      SweepOptions options;
      options.threads = kFleetThreads;
      FleetRunner(fleets_[0], options).Run();
    } else {
      grid_ = family_ == Family::kPaper ? PaperGrid(seed_) : ServerGrid(seed_);
      if (warmup_job_ < 0) {
        warmup_job_ = LongestJob(grid_);
      }
      arena_ = std::make_unique<Arena>();
      ExperimentConfig job = grid_[static_cast<std::size_t>(warmup_job_)];
      job.arena = arena_.get();
      RunExperiment(job);
    }
    return Since(t0);
  }

  std::size_t jobs() const { return family_ == Family::kFleet ? fleets_.size() : grid_.size(); }

  Pass RunPass() { return family_ == Family::kFleet ? RunFleetPass(kFleetThreads) : RunSweepPass(); }

  TracedPass RunTracedPass() {
    return family_ == Family::kFleet ? RunTracedFleetPass() : RunTracedSweepPass();
  }

  // Fleet reports must be byte-identical at 1 and 2 workers: reruns every
  // fleet on two workers and returns how many differ from `one_worker`.
  int CheckFleetWorkers(const Pass& one_worker) {
    const Pass two_workers = RunFleetPass(kFleetCheckThreads);
    int differ = 0;
    for (std::size_t i = 0; i < two_workers.digests.size(); ++i) {
      if (two_workers.digests[i] == 0 || two_workers.digests[i] != one_worker.digests[i]) {
        ++differ;
      }
    }
    return differ;
  }

  const std::vector<std::string>& errors() const { return errors_; }

 private:
  static int LongestJob(const std::vector<ExperimentConfig>& grid) {
    int longest = 0;
    SimTime longest_duration = SimTime::Zero();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      DeadlineMonitor scratch;
      const SimTime duration =
          grid[i].duration.value_or(MakeBundle(grid[i], &scratch).duration);
      if (longest_duration < duration) {
        longest_duration = duration;
        longest = static_cast<int>(i);
      }
    }
    return longest;
  }

  void NoteError(const std::string& error) {
    if (errors_.size() < 8) {
      errors_.push_back(error);
    }
  }

  Pass RunSweepPass() {
    Pass pass;
    std::vector<double> job_ms(grid_.size(), -1.0);
    SweepJobHooks hooks;
    hooks.execute = [&](const ExperimentConfig& config, int index) {
      ExperimentConfig job = config;
      job.arena = arena_.get();
      arena_->Reset();
      pass.host_probe_ms.push_back(HostProbeMs());
      const auto t0 = Clock::now();
      SweepJobResult slot;
      slot.result = RunExperiment(job);
      job_ms[static_cast<std::size_t>(index)] = Since(t0) * 1e3;
      return slot;
    };
    SweepOptions options;
    options.threads = 1;
    SweepRunner runner(options);
    const auto t0 = Clock::now();
    const std::vector<SweepJobResult> results = runner.Run(grid_, hooks);
    pass.wall_s = Since(t0);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        pass.job_ms.push_back(job_ms[i]);
        pass.job_sim_s.push_back(results[i].result->duration.ToSeconds());
        pass.job_devices.push_back(1);
        pass.digests.push_back(ResultDigest(*results[i].result));
      } else {
        pass.AddFailed();
        NoteError("job " + std::to_string(i) + ": " + results[i].error);
      }
    }
    return pass;
  }

  Pass RunFleetPass(int threads) {
    Pass pass;
    SweepOptions options;
    options.threads = threads;
    std::vector<FleetTotals> totals;
    for (std::size_t i = 0; i < fleets_.size(); ++i) {
      const FleetSpec& spec = fleets_[i];
      std::optional<FleetReport> report;
      pass.host_probe_ms.push_back(HostProbeMs());
      const auto t0 = Clock::now();
      try {
        FleetRunner runner(spec, options);
        report = runner.Run();
      } catch (const std::exception& e) {
        NoteError("fleet " + std::to_string(i) + ": " + e.what());
      }
      const double seconds = Since(t0);
      pass.wall_s += seconds;
      if (report.has_value() && report->devices == spec.devices && report->failed_shards == 0) {
        pass.job_ms.push_back(seconds * 1e3);
        pass.job_sim_s.push_back(static_cast<double>(report->devices) *
                                 spec.duration.ToSeconds());
        pass.job_devices.push_back(report->devices);
        pass.digests.push_back(StringDigest(RenderFleetJson(*report)));
        totals.push_back(FleetTotals::FromReport(*report));
      } else {
        if (report.has_value()) {
          NoteError("fleet " + std::to_string(i) + ": incomplete report");
        }
        pass.AddFailed();
        totals.emplace_back();
      }
    }
    if (fleet_totals_.empty()) {
      fleet_totals_ = totals;
    }
    return pass;
  }

  TracedPass RunTracedSweepPass() {
    TracedPass pass;
    std::vector<Layers> job_layers(grid_.size());
    SweepJobHooks hooks;
    hooks.execute = [&](const ExperimentConfig& config, int index) {
      Layers& layers = job_layers[static_cast<std::size_t>(index)];
      const auto t0 = Clock::now();
      SweepJobResult slot;
      slot.result = RunTracedJob(config, arena_.get(), &layers);
      layers.busy_s += Since(t0);
      return slot;
    };
    SweepOptions options;
    options.threads = 1;
    SweepRunner runner(options);
    const auto t0 = Clock::now();
    const std::vector<SweepJobResult> results = runner.Run(grid_, hooks);
    pass.wall_s = Since(t0);
    for (const Layers& layers : job_layers) {
      pass.layers.Add(layers);
    }

    // Fold: the registry merge and rendering every sweep export performs.
    const auto fold_t0 = Clock::now();
    MetricsRegistry merged;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        merged.MergeFrom(results[i].result->metrics);
        pass.digests.push_back(ResultDigest(*results[i].result));
      } else {
        pass.failed += 1;
        pass.digests.push_back(0);
        NoteError("traced job " + std::to_string(i) + ": " + results[i].error);
      }
    }
    std::ostringstream os;
    merged.WriteJson(os);
    pass.layers.fold_s = Since(fold_t0);

    const Layers& l = pass.layers;
    pass.probe_s = l.save_s + l.restore_s + l.daq_s;
    pass.device_s = l.build_s + l.run_s + l.finish_s;
    pass.threads = 1;
    return pass;
  }

  TracedPass RunTracedFleetPass() {
    TracedPass pass;
    pass.threads = kFleetThreads;
    for (std::size_t f = 0; f < fleets_.size(); ++f) {
      const FleetSpec& spec = fleets_[f];
      FleetRunner planner(spec, SweepOptions{});
      planner.Plan();
      const std::vector<FleetCell>& cells = planner.cells();
      const std::vector<FleetShard>& shards = planner.shards();
      std::vector<Layers> shard_layers(shards.size());
      std::vector<FleetTotals> shard_totals(shards.size());
      std::vector<MetricsRegistry> shard_metrics(shards.size());

      SweepJobHooks hooks;
      hooks.execute = [&](const ExperimentConfig&, int index) {
        const auto i = static_cast<std::size_t>(index);
        // Same per-worker arena lifetime as the campaign layer's workers.
        thread_local Arena arena;
        const auto t0 = Clock::now();
        shard_totals[i] =
            RunTracedShard(spec, cells[static_cast<std::size_t>(shards[i].cell)], shards[i],
                           &arena, &shard_layers[i], &shard_metrics[i]);
        shard_layers[i].busy_s += Since(t0);
        SweepJobResult slot;
        slot.result.emplace();
        slot.result->duration = spec.duration;
        return slot;
      };
      SweepOptions options;
      options.threads = kFleetThreads;
      SweepRunner runner(options);
      const std::vector<ExperimentConfig> placeholders(shards.size());
      const auto t0 = Clock::now();
      const std::vector<SweepJobResult> results = runner.Run(placeholders, hooks);
      pass.wall_s += Since(t0);

      const auto fold_t0 = Clock::now();
      MetricsRegistry merged;
      for (const MetricsRegistry& m : shard_metrics) {
        merged.MergeFrom(m);
      }
      std::ostringstream os;
      merged.WriteJson(os);
      const double fold_s = Since(fold_t0);

      FleetTotals totals;
      bool ok = true;
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok()) {
          ok = false;
          NoteError("traced fleet " + std::to_string(f) + " shard " + std::to_string(i) + ": " +
                    results[i].error);
        }
        totals.Add(shard_totals[i]);
        pass.layers.Add(shard_layers[i]);
      }
      pass.layers.fold_s += fold_s;
      pass.fleet_totals.push_back(totals);
      if (!ok || f >= fleet_totals_.size() || !(totals == fleet_totals_[f])) {
        pass.failed += 1;
        if (ok) {
          NoteError("traced fleet " + std::to_string(f) +
                    ": totals differ from the untraced fleet report");
        }
      }
    }
    const Layers& l = pass.layers;
    pass.probe_s = l.daq_s;
    pass.device_s = l.build_s + l.run_s + l.save_s + l.restore_s;
    return pass;
  }

  Family family_;
  std::uint64_t seed_;
  std::vector<ExperimentConfig> grid_;
  std::vector<FleetSpec> fleets_;
  int warmup_job_ = -1;
  std::unique_ptr<Arena> arena_;
  std::vector<FleetTotals> fleet_totals_;  // from the first untraced pass
  std::vector<std::string> errors_;
};

// --- Output -------------------------------------------------------------------------

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

template <typename T, typename F>
std::string List(const std::vector<T>& values, F render) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += render(values[i]);
  }
  return out + "]";
}

std::string LayersJson(const TracedPass& p) {
  const Layers& l = p.layers;
  std::ostringstream os;
  os << "{\"wall_s\":" << JsonNumber(p.wall_s) << ",\"probe_s\":" << JsonNumber(p.probe_s)
     << ",\"device_s\":" << JsonNumber(p.device_s) << ",\"threads\":" << p.threads
     << ",\"build_s\":" << JsonNumber(l.build_s) << ",\"run_s\":" << JsonNumber(l.run_s)
     << ",\"finish_s\":" << JsonNumber(l.finish_s)
     << ",\"warmup_s\":" << JsonNumber(l.warmup_s)
     << ",\"save_s\":" << JsonNumber(l.save_s) << ",\"restore_s\":" << JsonNumber(l.restore_s)
     << ",\"fold_s\":" << JsonNumber(l.fold_s) << ",\"daq_s\":" << JsonNumber(l.daq_s)
     << ",\"busy_s\":" << JsonNumber(l.busy_s)
     << ",\"governor_s\":" << JsonNumber(static_cast<double>(l.governor_ns) * 1e-9)
     << ",\"next_s\":" << JsonNumber(static_cast<double>(l.next_ns) * 1e-9)
     << ",\"restores\":" << l.restores << ",\"image_bytes\":" << l.image_bytes
     << ",\"images\":" << l.images << ",\"daq_samples\":" << l.daq_samples
     << ",\"decisions\":" << l.decisions << ",\"changes\":" << l.changes
     << ",\"next_calls\":" << l.next_calls << ",\"requests\":" << l.requests
     << ",\"rejected\":" << l.rejected << ",\"shed\":" << l.shed
     << ",\"events\":" << l.events << ",\"cancelled\":" << l.cancelled
     << ",\"quanta\":" << l.quanta << ",\"tape_segments\":" << l.tape_segments << "}";
  return os.str();
}

std::string PassJson(const Pass& p) {
  const auto count = [](std::uint64_t v) { return std::to_string(v); };
  std::ostringstream os;
  os << "{\"wall_s\":" << JsonNumber(p.wall_s) << ",\"failed\":" << p.failed
     << ",\"job_ms\":" << List(p.job_ms, JsonNumber)
     << ",\"job_sim_s\":" << List(p.job_sim_s, JsonNumber)
     << ",\"job_devices\":" << List(p.job_devices, count)
     << ",\"host_probe_ms\":" << List(p.host_probe_ms, JsonNumber) << "}";
  return os.str();
}

// Peak resident set (VmHWM) in MiB.
double PeakRssMib() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "dcs_bench: %s\nusage: dcs_bench --workload paper_sweep|fleet_clone|"
               "server_openloop --seed N --seconds S --trace 0|1\n",
               error.c_str());
  return 2;
}

bool ParseU64(const std::string& s, std::uint64_t* out) {
  const auto res = std::from_chars(s.data(), s.data() + s.size(), *out);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

// Jobs whose digest in `pass` differs from `reference` (failed jobs, marked
// 0, are already counted).
int DigestMismatches(const std::vector<std::uint64_t>& pass,
                     const std::vector<std::uint64_t>& reference) {
  int mismatches = 0;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    if (pass[i] != 0 && (i >= reference.size() || pass[i] != reference[i])) {
      ++mismatches;
    }
  }
  return mismatches;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      have_seed = ParseU64(value, &seed);
    } else if (flag == "--seconds") {
      have_seconds = ParseU64(value, &seconds);
    } else if (flag == "--trace") {
      if (!ParseU64(value, &trace)) {
        trace = 2;
      }
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  Family family;
  if (workload == "paper_sweep") {
    family = Family::kPaper;
  } else if (workload == "fleet_clone") {
    family = Family::kFleet;
  } else if (workload == "server_openloop") {
    family = Family::kServer;
  } else {
    return Usage("unknown --workload '" + workload + "'");
  }
  if (!have_seed || !have_seconds || seconds == 0 || trace > 1) {
    return Usage("--seed, --seconds (> 0) and --trace 0|1 are required");
  }
  const bool traced = trace == 1;

  // Set-ups are spread evenly over the run rather than done back to back, so
  // that their median sees the same host conditions the passes do.
  Harness harness(family, seed);
  constexpr std::size_t kSetUps = 9;
  std::vector<double> setup_s;
  std::vector<double> setup_host_probe_ms;
  const auto set_up = [&] {
    setup_host_probe_ms.push_back(HostProbeMs());
    setup_s.push_back(harness.SetUp());
  };
  set_up();

  // Timed passes.  Untraced runs keep going until the budget is spent and
  // every job has run often enough for job_ms_p90, which run.py takes over
  // the same number of runs of each job, to have 100 samples and so ten
  // beyond it; traced runs alternate untraced and traced passes.  A hard
  // cap keeps every run well inside the three-minute limit.
  constexpr std::size_t kMinJobSamples = 100;
  constexpr int kMinPasses = 3;
  const double budget_s = static_cast<double>(seconds);
  const double hard_cap_s = budget_s + 60.0;
  std::vector<Pass> passes;
  std::vector<TracedPass> traced_passes;
  std::size_t job_samples = 0;
  std::vector<std::uint64_t> reference;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto t0 = Clock::now();
  for (;;) {
    Pass pass = harness.RunPass();
    attempted += pass.digests.size();
    failed += static_cast<std::uint64_t>(pass.failed);
    if (reference.empty()) {
      reference = pass.digests;
    } else {
      failed += static_cast<std::uint64_t>(DigestMismatches(pass.digests, reference));
    }
    job_samples += pass.job_ms.size() - static_cast<std::size_t>(pass.failed);
    passes.push_back(std::move(pass));
    if (traced) {
      TracedPass tp = harness.RunTracedPass();
      attempted += tp.digests.size() + tp.fleet_totals.size();
      failed += static_cast<std::uint64_t>(tp.failed);
      failed += static_cast<std::uint64_t>(DigestMismatches(tp.digests, reference));
      traced_passes.push_back(std::move(tp));
    }
    const double elapsed = Since(t0);
    if (setup_s.size() < kSetUps &&
        elapsed >= budget_s * static_cast<double>(setup_s.size()) / kSetUps) {
      set_up();
    }
    const bool enough = static_cast<int>(passes.size()) >= kMinPasses &&
                        (traced || job_samples >= kMinJobSamples);
    if ((elapsed >= budget_s && enough) || elapsed >= hard_cap_s) {
      break;
    }
  }
  while (setup_s.size() < kSetUps) {
    set_up();
  }

  if (family == Family::kFleet) {
    attempted += harness.jobs();
    failed += static_cast<std::uint64_t>(harness.CheckFleetWorkers(passes.front()));
  }

  std::ostringstream os;
  os << "{\"workload\":" << Quote(workload) << ",\"seed\":" << seed
     << ",\"trace\":" << trace << ",\"threads\":" << harness.threads()
#ifdef __clang__
     << ",\"compiler\":" << Quote("clang " __clang_version__)
#else
     << ",\"compiler\":" << Quote("gcc " __VERSION__)
#endif
     << ",\"build_type\":" << Quote(DCS_BENCH_BUILD_TYPE)
     << ",\"platform\":" << Quote(Hex(PlatformFingerprint()))
     << ",\"setup_s\":" << List(setup_s, JsonNumber)
     << ",\"setup_host_probe_ms\":" << List(setup_host_probe_ms, JsonNumber)
     << ",\"passes\":" << List(passes, PassJson)
     << ",\"traced\":" << List(traced_passes, LayersJson)
     << ",\"job_digests\":"
     << List(reference, [](std::uint64_t digest) { return Quote(Hex(digest)); })
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"errors\":" << List(harness.errors(), Quote)
     << ",\"peak_rss_mib\":" << JsonNumber(PeakRssMib()) << "}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) { return dcs::Main(argc, argv); }
