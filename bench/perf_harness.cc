// Hot-path performance harness.
//
// Every experiment in the repro funnels through three loops — the
// discrete-event queue, the power-tape readers and the 5 kHz DAQ sampler —
// so this binary times exactly those, plus end-to-end wall clocks for the
// fig8 / tab2 / sweep_avgn workloads at fixed seeds.  Results are emitted as
// a dcs-bench/1 JSON run object (median of K repetitions, one warmup run
// discarded, host metadata included); the committed BENCH_dcs.json at the
// repository root keeps the trajectory, and scripts/bench_diff.py compares
// any two runs.
//
// Flags:
//   --out=FILE     write the JSON run object to FILE (default: stdout)
//   --label=STR    label recorded in the run object (default: "local")
//   --quick        smaller iteration counts and K=3: CI-friendly (~15 s).
//                  Throughput numbers stay comparable to full runs; only
//                  their noise floor rises.
//   --k=N          override the repetition count
//   --only=PREFIX  run only benchmarks whose name starts with PREFIX

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "src/core/governor_registry.h"
#include "src/daq/daq.h"
#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/sweep.h"
#include "src/hw/itsy.h"
#include "src/hw/power_tape.h"
#include "src/kernel/kernel.h"
#include "src/sim/arena.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace dcs {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct HarnessOptions {
  bool quick = false;
  int k = 0;  // 0: default (7 full, 3 quick)
  std::string out;
  std::string label = "local";
  std::string only;

  int Reps() const { return k > 0 ? k : (quick ? 3 : 7); }
};

// Runs `body` Reps()+1 times, discards the warmup run, and records the
// median.  `body` returns the sample value already converted to `unit`.
void RunBench(BenchReport& report, const HarnessOptions& options, const std::string& name,
              const std::string& kind, const std::string& unit, bool higher_is_better,
              const std::function<double()>& body) {
  if (!options.only.empty() && name.rfind(options.only, 0) != 0) {
    return;
  }
  BenchResult result;
  result.name = name;
  result.kind = kind;
  result.unit = unit;
  result.higher_is_better = higher_is_better;
  (void)body();  // warmup, discarded
  for (int rep = 0; rep < options.Reps(); ++rep) {
    result.samples.push_back(body());
  }
  result.median = Median(result.samples);
  std::fprintf(stderr, "[perf] %-32s %10.3f %s\n", name.c_str(), result.median,
               unit.c_str());
  report.Add(std::move(result));
}

// --- Event queue -----------------------------------------------------------

// The kernel's steady-state pattern: every dispatch pushes a completion
// event and a tick event, most completions are cancelled again when the task
// is preempted or yields, and the loop pops whatever is due.  Callbacks
// carry four words of scheduling context (owner pointer, pid, deadline,
// phase) — the payload the queue's small-buffer storage is sized for, and
// past the 16-byte std::function SSO line.  The random delay schedule is
// drawn before the clock starts so the timed region is queue work only.
// Reported as Mops/s over pushes + cancels + pops.
double EventQueuePushPopCancelSample(int iters) {
  EventQueue q;
  std::uint64_t sink = 0;
  Rng rng(0xBE7C41);
  SimTime now = SimTime::Zero();
  constexpr std::size_t kSteadyLive = 16;
  std::vector<std::int64_t> delays;
  delays.reserve(static_cast<std::size_t>(iters) * 2);
  for (int i = 0; i < iters * 2; ++i) {
    delays.push_back(rng.UniformInt(1, 10'000));
  }
  for (std::size_t i = 0; i < kSteadyLive; ++i) {
    q.Push(now + SimTime::Micros(rng.UniformInt(1, 10'000)),
           [&sink, i, pid = i & 7, deadline = now] {
             sink += i + pid + static_cast<std::uint64_t>(deadline.nanos());
           });
  }
  std::uint64_t ops = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    const SimTime completion_at =
        now + SimTime::Micros(delays[static_cast<std::size_t>(i) * 2]);
    const SimTime tick_at =
        now + SimTime::Micros(delays[static_cast<std::size_t>(i) * 2 + 1]);
    const EventId completion =
        q.Push(completion_at, [&sink, seq = static_cast<std::uint64_t>(i),
                               at = completion_at, pid = i & 7] {
          sink += seq + static_cast<std::uint64_t>(at.nanos()) +
                  static_cast<std::uint64_t>(pid);
        });
    q.Push(tick_at, [&sink, seq = static_cast<std::uint64_t>(i), at = tick_at,
                     pid = (i + 1) & 7] {
      sink += seq + static_cast<std::uint64_t>(at.nanos()) +
              static_cast<std::uint64_t>(pid);
    });
    ops += 2;
    if ((i & 3) != 0) {
      q.Cancel(completion);
      ++ops;
    }
    while (q.Size() > kSteadyLive) {
      EventQueue::Entry entry = q.Pop();
      if (entry.at > now) {
        now = entry.at;
      }
      entry.fn();
      ++ops;
    }
  }
  while (!q.Empty()) {
    q.Pop().fn();
    ++ops;
  }
  const double elapsed = SecondsSince(t0);
  return static_cast<double>(ops) / elapsed / 1e6;
}

// Cancel-heavy governors: almost every scheduled event dies before firing.
// This is the pattern that used to grow the lazy-delete heap without bound.
double EventQueueCancelStormSample(int iters) {
  EventQueue q;
  std::uint64_t sink = 0;
  Rng rng(0x57082);
  constexpr int kBatch = 4096;
  std::vector<std::int64_t> delays;
  delays.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    delays.push_back(rng.UniformInt(1, 1'000));
  }
  std::uint64_t ops = 0;
  const auto t0 = Clock::now();
  std::vector<EventId> ids;
  ids.reserve(kBatch);
  for (int round = 0; round < iters / kBatch; ++round) {
    ids.clear();
    const SimTime base = SimTime::Millis(round);
    for (int i = 0; i < kBatch; ++i) {
      const SimTime at = base + SimTime::Micros(delays[static_cast<std::size_t>(i)]);
      ids.push_back(q.Push(at, [&sink, at, round, pid = i & 7] {
        sink += static_cast<std::uint64_t>(at.nanos()) +
                static_cast<std::uint64_t>(round) + static_cast<std::uint64_t>(pid);
      }));
    }
    for (int i = 0; i < kBatch; ++i) {
      if ((i & 15) != 0) {
        q.Cancel(ids[static_cast<std::size_t>(i)]);
      }
    }
    while (!q.Empty()) {
      q.Pop().fn();
    }
    ops += static_cast<std::uint64_t>(kBatch) * 2;
  }
  const double elapsed = SecondsSince(t0);
  return static_cast<double>(ops) / elapsed / 1e6;
}

// --- Power tape ------------------------------------------------------------

// A tape shaped like a real 60 s MPEG run: hundreds of thousands of
// piecewise-constant segments (the Itsy refreshes power on every exec-state
// flip, clock change and peripheral toggle).
PowerTape BuildDenseTape(int segments, double span_seconds) {
  PowerTape tape;
  Rng rng(0x7A9E);
  const std::int64_t step_ns =
      static_cast<std::int64_t>(span_seconds * 1e9) / segments;
  SimTime t = SimTime::Zero();
  for (int i = 0; i < segments; ++i) {
    tape.Set(t, rng.Uniform(0.1, 3.0));
    t += SimTime::Nanos(step_ns / 2 + rng.UniformInt(1, step_ns));
  }
  return tape;
}

// Windowed energy queries, the EnergyLedger pattern: many short windows over
// a long dense tape.  Reported as queries/s.
double TapeEnergyWindowsSample(const PowerTape& tape, int queries) {
  Rng rng(0xE49);
  const SimTime last = tape.segments().back().start;
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < queries; ++i) {
    const SimTime begin = SimTime::Micros(rng.UniformInt(0, last.micros() - 20'000));
    sink += tape.EnergyJoules(begin, begin + SimTime::Micros(rng.UniformInt(100, 10'000)));
  }
  const double elapsed = SecondsSince(t0);
  if (sink < 0.0) {
    std::abort();  // keep `sink` observable
  }
  return static_cast<double>(queries) / elapsed;
}

// Full-window integration (the experiment's exact-energy readback plus the
// ledger's total): one long query per call.  Reported as queries/s.
double TapeFullIntegrationSample(const PowerTape& tape, int queries) {
  const SimTime last = tape.segments().back().start;
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < queries; ++i) {
    sink += tape.EnergyJoules(SimTime::Zero(), last + SimTime::Millis(1 + i));
  }
  const double elapsed = SecondsSince(t0);
  if (sink < 0.0) {
    std::abort();
  }
  return static_cast<double>(queries) / elapsed;
}

// Sequential instantaneous reads at the DAQ's 200 us cadence.  Uses the
// monotonic cursor when the tape provides one, the plain binary-search
// WattsAt otherwise — i.e. whatever the DAQ's sampling loop would use.
double TapeSequentialReadSample(const PowerTape& tape, int reads) {
  double sink = 0.0;
  const auto t0 = Clock::now();
#if defined(DCS_POWER_TAPE_HAS_CURSOR)
  PowerTape::Cursor cursor(tape);
  for (int i = 0; i < reads; ++i) {
    sink += cursor.WattsAt(SimTime::Micros(static_cast<std::int64_t>(i) * 200));
  }
#else
  for (int i = 0; i < reads; ++i) {
    sink += tape.WattsAt(SimTime::Micros(static_cast<std::int64_t>(i) * 200));
  }
#endif
  const double elapsed = SecondsSince(t0);
  if (sink < 0.0) {
    std::abort();
  }
  return static_cast<double>(reads) / elapsed / 1e6;
}

// --- DAQ -------------------------------------------------------------------

// The paper's measurement pipeline end to end: 5 kHz sampling with shunt +
// ADC model over the dense tape.  Reported as Msamples/s.
double DaqSampleSample(const PowerTape& tape, SimTime window_end) {
  Daq daq;
  const auto t0 = Clock::now();
  const std::vector<double> samples = daq.SamplePowerWatts(tape, SimTime::Zero(), window_end);
  const double elapsed = SecondsSince(t0);
  return static_cast<double>(samples.size()) / elapsed / 1e6;
}

// Same pipeline with ADC noise disabled: isolates the tape lookup + ADC
// quantisation machinery from the (irreducible) Gaussian noise draws, which
// dominate the noisy configuration.  Reported as Msamples/s.
double DaqSampleTapeBoundSample(const PowerTape& tape, SimTime window_end) {
  DaqConfig config;
  config.noise_lsb = 0.0;
  Daq daq(config);
  const auto t0 = Clock::now();
  const std::vector<double> samples = daq.SamplePowerWatts(tape, SimTime::Zero(), window_end);
  const double elapsed = SecondsSince(t0);
  return static_cast<double>(samples.size()) / elapsed / 1e6;
}

// The batched SoA pipeline through the span-returning entry point, with an
// arena-bound sample buffer — exactly how a warmed sweep worker samples.
// Reported as Msamples/s.
double DaqBatchSampleSample(const PowerTape& tape, SimTime window_end, Arena& arena) {
  arena.Reset();
  Daq daq(DaqConfig{}, &arena);
  const auto t0 = Clock::now();
  const std::span<const double> samples = daq.SampleWindow(tape, SimTime::Zero(), window_end);
  const double elapsed = SecondsSince(t0);
  return static_cast<double>(samples.size()) / elapsed / 1e6;
}

// --- Arena -----------------------------------------------------------------

// One warmed arena job cycle: a burst of mixed-size allocations (the shape a
// per-job simulation stack produces) followed by the Reset() rewind.
// Reported as Mallocs/s.
double ArenaResetCycleSample(int cycles) {
  constexpr int kAllocsPerCycle = 512;
  Arena arena;
  // Warm the block list so the measured cycles are pure bump/rewind.
  for (int k = 0; k < kAllocsPerCycle; ++k) {
    (void)arena.Allocate(static_cast<std::size_t>(16 + 48 * (k % 32)), 16);
  }
  arena.Reset();
  std::uintptr_t sink = 0;
  const auto t0 = Clock::now();
  for (int c = 0; c < cycles; ++c) {
    for (int k = 0; k < kAllocsPerCycle; ++k) {
      sink ^= reinterpret_cast<std::uintptr_t>(
          arena.Allocate(static_cast<std::size_t>(16 + 48 * (k % 32)), 16));
    }
    arena.Reset();
  }
  const double elapsed = SecondsSince(t0);
  if (sink == 1) {
    std::abort();
  }
  return static_cast<double>(cycles) * kAllocsPerCycle / elapsed / 1e6;
}

// --- Kernel tick path ------------------------------------------------------

// A square-wave load alternating multi-quantum compute bursts with sleeps,
// so the installed governor's utilization history swings through its
// thresholds and it issues real speed requests: every tick pays the full
// path — quantum accounting, policy dispatch, round-robin, event re-arm.
class TickLoadWorkload final : public Workload {
 public:
  const char* Name() const override { return "tick_load"; }
  Action Next(const WorkloadContext& ctx) override {
    busy_ = !busy_;
    if (busy_) {
      return Action::Compute(6.0e6);  // ~29 ms at 206.4 MHz
    }
    return Action::SleepUntil(ctx.now + SimTime::Millis(14));
  }

 private:
  bool busy_ = false;
};

// The kernel tick + governor-decision path in isolation, measured over a
// long run of 10 ms quanta under a representative interval governor.
// Reported as kticks/s.
double KernelTickDispatchSample(int quanta) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel kernel(sim, itsy);
  std::string error;
  const GovernorHandle governor = MakeGovernorDispatch("AVG9-one-one-50-70", &error);
  if (governor.governor == nullptr) {
    std::abort();
  }
  kernel.InstallPolicy(governor.dispatch);
  kernel.AddTask(std::make_unique<TickLoadWorkload>());
  const SimTime duration = SimTime::Millis(static_cast<std::int64_t>(quanta) * 10);
  const auto t0 = Clock::now();
  kernel.Start();
  sim.RunUntil(duration);
  const double elapsed = SecondsSince(t0);
  return static_cast<double>(kernel.quanta_elapsed()) / elapsed / 1e3;
}

// --- End-to-end workloads --------------------------------------------------

double RunOneExperimentMs(const std::string& app, const std::string& governor,
                          std::uint64_t seed, double seconds) {
  ExperimentConfig config;
  config.app = app;
  config.governor = governor;
  config.seed = seed;
  config.duration = SimTime::FromSecondsF(seconds);
  const auto t0 = Clock::now();
  (void)RunExperiment(config);
  return SecondsSince(t0) * 1e3;
}

// fig8: MPEG under the paper's best policy, 40 s, seed 42.
double E2eFig8Sample() { return RunOneExperimentMs("mpeg", "PAST-peg-peg-93-98", 42, 40.0); }

// tab2: the five best-algorithm configurations, one 60 s run each, seed 1000.
double E2eTab2Sample() {
  const char* governors[] = {"fixed-206.4", "fixed-132.7", "fixed-132.7@1.23",
                             "PAST-peg-peg-93-98", "PAST-peg-peg-93-98-vs"};
  double total = 0.0;
  for (const char* governor : governors) {
    total += RunOneExperimentMs("mpeg", governor, 1000, 60.0);
  }
  return total;
}

// sweep_avgn: a fixed 13-job slice of the section 5.3 grid, 10 s per job,
// seed 7, single worker (wall clock must not depend on idle cores).
double E2eSweepAvgnSample() {
  const char* speed_policies[] = {"one", "peg"};
  std::vector<ExperimentConfig> configs;
  ExperimentConfig base;
  base.app = "mpeg";
  base.governor = "fixed-206.4";
  base.seed = 7;
  base.duration = SimTime::FromSecondsF(10.0);
  configs.push_back(base);
  for (int n = 0; n <= 2; ++n) {
    for (const char* up : speed_policies) {
      for (const char* down : speed_policies) {
        char spec[64];
        std::snprintf(spec, sizeof(spec), "AVG%d-%s-%s-50-70", n, up, down);
        configs.push_back(base);
        configs.back().governor = spec;
      }
    }
  }
  SweepOptions options;
  options.threads = 1;
  const auto t0 = Clock::now();
  (void)RunSweep(configs, options);
  return SecondsSince(t0) * 1e3;
}

// server_slo: a six-governor slice of the open-loop server grid, 6 s arrival
// window at 200 req/s, seed 7, single worker — the "full sweep" shape whose
// per-job cost is dominated by kernel ticks and DAQ sampling.
double E2eServerSloSample() {
  ServerConfig scenario;
  scenario.duration = SimTime::Seconds(6);
  scenario.rate_rps = 200.0;
  const char* governors[] = {"fixed-206.4",        "PAST-peg-peg-93-98", "AVG9-one-one-50-70",
                             "deadline-vs",        "schedutil",          "adaptive-vs"};
  std::vector<ExperimentConfig> configs;
  for (const char* governor : governors) {
    ExperimentConfig config;
    config.app = "server";
    config.server = scenario;
    config.governor = governor;
    config.seed = 7;
    configs.push_back(config);
  }
  SweepOptions options;
  options.threads = 1;
  const auto t0 = Clock::now();
  (void)RunSweep(configs, options);
  return SecondsSince(t0) * 1e3;
}

// --- Driver ----------------------------------------------------------------

int Main(int argc, char** argv) {
  HarnessOptions options;
  FlagSet flags;
  flags.Switch("quick", &options.quick);
  flags.String("out", &options.out);
  flags.String("label", &options.label);
  flags.String("only", &options.only);
  flags.Int("k", &options.k);
  flags.ParseOrExit(argc, argv);

  BenchReport report(options.label, options.Reps(), options.quick);
  // The DAQ rows depend on which ISA variant of its block passes this CPU
  // selects; scripts/bench_diff.py warns when two runs differ in it.
  report.AddHostField("daq_variant", Daq::IsaVariant());

  const int queue_iters = options.quick ? 200'000 : 1'000'000;
  RunBench(report, options, "event_queue.push_pop_cancel", "micro", "Mops/s", true,
           [&] { return EventQueuePushPopCancelSample(queue_iters); });
  RunBench(report, options, "event_queue.cancel_storm", "micro", "Mops/s", true,
           [&] { return EventQueueCancelStormSample(queue_iters); });

  const int tape_segments = options.quick ? 150'000 : 600'000;
  const double tape_span_s = 60.0;
  const PowerTape tape = BuildDenseTape(tape_segments, tape_span_s);
  RunBench(report, options, "power_tape.energy_windows", "micro", "queries/s", true,
           [&] { return TapeEnergyWindowsSample(tape, options.quick ? 300 : 1'000); });
  RunBench(report, options, "power_tape.full_integration", "micro", "queries/s", true,
           [&] { return TapeFullIntegrationSample(tape, options.quick ? 20 : 50); });
  RunBench(report, options, "power_tape.sequential_read", "micro", "Mreads/s", true,
           [&] { return TapeSequentialReadSample(tape, options.quick ? 100'000 : 300'000); });
  RunBench(report, options, "daq.sample_5khz", "micro", "Msamples/s", true, [&] {
    return DaqSampleSample(tape, SimTime::FromSecondsF(tape_span_s));
  });
  RunBench(report, options, "daq.sample_tape_bound", "micro", "Msamples/s", true, [&] {
    return DaqSampleTapeBoundSample(tape, SimTime::FromSecondsF(tape_span_s));
  });
  Arena daq_arena;
  RunBench(report, options, "daq.batch_sample", "micro", "Msamples/s", true, [&] {
    return DaqBatchSampleSample(tape, SimTime::FromSecondsF(tape_span_s), daq_arena);
  });

  RunBench(report, options, "arena.reset_cycle", "micro", "Mallocs/s", true,
           [&] { return ArenaResetCycleSample(options.quick ? 2'000 : 10'000); });

  const int tick_quanta = options.quick ? 20'000 : 50'000;
  RunBench(report, options, "kernel.tick_dispatch", "micro", "kticks/s", true,
           [&] { return KernelTickDispatchSample(tick_quanta); });

  RunBench(report, options, "e2e.fig8_ms", "e2e", "ms", false, E2eFig8Sample);
  RunBench(report, options, "e2e.tab2_ms", "e2e", "ms", false, E2eTab2Sample);
  RunBench(report, options, "e2e.sweep_avgn_ms", "e2e", "ms", false, E2eSweepAvgnSample);
  RunBench(report, options, "e2e.server_slo_ms", "e2e", "ms", false, E2eServerSloSample);

  if (options.out.empty()) {
    report.WriteJson(std::cout);
    std::cout << "\n";
  } else {
    std::ofstream out(options.out, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", options.out.c_str());
      return 1;
    }
    report.WriteJson(out);
    out << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) { return dcs::Main(argc, argv); }
