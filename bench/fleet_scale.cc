// Fleet-scale bench: times the snapshot/clone fleet layer and guards its
// two load-bearing promises.
//
//   1. Cloning a device from its cell's warmup image must be at least 5x
//      faster than re-simulating the warmup (the whole point of the image);
//      the run fails if the measured speedup ever drops below that.
//   2. The fleet report must be byte-identical across --threads and shard
//      sizes (the merge-algebra contract); the run fails on any mismatch.
//
// The sweep then runs fleet size x governor combinations and prints
// devices/sec and the peak RSS to stderr.  Its speed is measured and gated
// by perfbench's fleet_clone workload, not here.
//
// Flags (bench mode):
//   --quick        ~10k devices total: CI-friendly.  Full mode sweeps
//                  {1k, 100k, 1M} devices per governor; the 1M rows are the
//                  headline (target: >= 100k devices/min on one box).
//   --k=N          override the repetition count for the small rows
//   --threads=N    fleet worker threads (default: all hardware threads)
//
// Soak mode (--soak) runs bench/kill_resume.h's soak, as campaign_soak
// does, to prove the fleet journal end-to-end: a child fleet (--child) is
// SIGKILLed mid-run and resumed over the same journal; the final resumed
// fleet JSON must be byte-identical to an uninterrupted reference run.
//
//   --soak --workdir=DIR --kills=N --kill-after-ms=MS --threads=N

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/kill_resume.h"
#include "src/exp/device_sim.h"
#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/fleet.h"
#include "src/exp/sweep.h"
#include "src/sim/arena.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The governor slate from the issue brief: a fixed anchor, the PID feedback
// governor, the self-tuning adaptive governor, and the deadline-aware one —
// all voltage-scaled except the anchor.
constexpr const char* kGovernors[] = {"fixed-132.7", "pid-vs", "adaptive-vs", "deadline-vs"};

constexpr SimTime kWarmup = SimTime::Seconds(2);
constexpr SimTime kHorizon = SimTime::Seconds(3);

struct Options {
  bool quick = false;
  int k = 0;  // 0: default (3 full, 2 quick)
  int threads = 0;
  // soak/child plumbing
  bool soak = false;
  bool child = false;
  std::string resume;
  KillResumeOptions soak_run;

  int Reps() const { return k > 0 ? k : (quick ? 2 : 3); }
};

// The bench fleet: an mpeg-heavy mix with per-device battery-capacity
// jitter, 2 s shared warmup and a 1 s per-device tail.
FleetSpec BenchFleet(std::uint64_t devices, const std::string& governor) {
  FleetSpec spec;
  spec.devices = devices;
  spec.shard_devices = 512;
  spec.seed = 12;
  spec.apps = {{"mpeg", 3.0}, {"web", 1.0}};
  spec.base.governor = governor;
  spec.base.itsy.battery = BatteryParams{};
  spec.warmup = kWarmup;
  spec.duration = kHorizon;
  spec.jitter.battery_capacity = 0.1;
  return spec;
}

std::string RunFleetJson(FleetSpec spec, int threads) {
  SweepOptions options;
  options.threads = threads;
  FleetRunner runner(std::move(spec), options);
  return RenderFleetJson(runner.Run());
}

// Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable.
double PeakRssMb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// --- Contract 1: byte-identity across threads and shard sizes --------------

bool ByteIdentityCheck() {
  FleetSpec base = BenchFleet(96, "pid-vs");
  base.shard_devices = 32;
  const std::string reference = RunFleetJson(base, 1);

  FleetSpec odd_shards = BenchFleet(96, "pid-vs");
  odd_shards.shard_devices = 17;
  if (RunFleetJson(std::move(odd_shards), 1) != reference) {
    std::fprintf(stderr, "[fleet] FAIL: report changed with shard size 32 -> 17\n");
    return false;
  }
  if (RunFleetJson(BenchFleet(96, "pid-vs"), 4) != reference) {
    std::fprintf(stderr, "[fleet] FAIL: report changed with --threads 1 -> 4\n");
    return false;
  }
  std::fprintf(stderr,
               "[fleet] byte-identity OK across shard sizes {17, 32} and threads {1, 4}\n");
  return true;
}

// --- Contract 2: snapshot-clone >= 5x faster than warmup re-simulation -----

struct CloneRates {
  double restores_per_s = 0.0;
  double warmups_per_s = 0.0;
};

CloneRates MeasureCloneRates(const Options& options) {
  Arena cell_arena;
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "pid-vs";
  config.seed = 12;
  config.duration = kHorizon;
  config.itsy.battery = BatteryParams{};
  config.arena = &cell_arena;

  DeviceSim cell(config);
  cell.Start();
  cell.RunUntil(kWarmup);
  SnapshotWriter image;
  cell.SaveState(&image);

  CloneRates rates;
  const int restores = options.quick ? 1000 : 5000;
  {
    const auto t0 = Clock::now();
    for (int i = 0; i < restores; ++i) {
      SnapshotReader reader(image);
      cell.LoadState(&reader);
      if (!reader.ok()) {
        std::fprintf(stderr, "[fleet] FAIL: restore %d rejected the image\n", i);
        return rates;
      }
    }
    rates.restores_per_s = restores / SecondsSince(t0);
  }

  Arena warm_arena;
  const int warmups = options.quick ? 6 : 15;
  {
    const auto t0 = Clock::now();
    for (int i = 0; i < warmups; ++i) {
      warm_arena.Reset();
      ExperimentConfig fresh = config;
      fresh.arena = &warm_arena;
      DeviceSim device(fresh);
      device.Start();
      device.RunUntil(kWarmup);
    }
    rates.warmups_per_s = warmups / SecondsSince(t0);
  }
  return rates;
}

// --- Sweep: fleet size x governor ------------------------------------------

std::string SizeName(std::uint64_t devices) {
  if (devices % 1'000'000 == 0) {
    return std::to_string(devices / 1'000'000) + "m";
  }
  if (devices % 1'000 == 0) {
    return std::to_string(devices / 1'000) + "k";
  }
  return std::to_string(devices);
}

double DevicesPerSecond(std::uint64_t devices, const std::string& governor, int threads) {
  SweepOptions options;
  options.threads = threads;
  FleetRunner runner(BenchFleet(devices, governor), options);
  const auto t0 = Clock::now();
  const FleetReport report = runner.Run();
  const double seconds = SecondsSince(t0);
  if (report.devices != devices) {
    std::fprintf(stderr, "[fleet] FAIL: %llu of %llu devices aggregated\n",
                 static_cast<unsigned long long>(report.devices),
                 static_cast<unsigned long long>(devices));
    std::exit(1);
  }
  return static_cast<double>(devices) / seconds;
}

int RunBenchMode(const Options& options) {
  if (!ByteIdentityCheck()) {
    return 1;
  }

  // Clone-vs-warmup rates over Reps() repetitions; the median speedup must
  // clear the 5x floor.
  std::vector<double> restore_samples;
  std::vector<double> warmup_samples;
  std::vector<double> speedup_samples;
  for (int rep = 0; rep < options.Reps(); ++rep) {
    const CloneRates rates = MeasureCloneRates(options);
    if (rates.restores_per_s <= 0.0 || rates.warmups_per_s <= 0.0) {
      return 1;
    }
    restore_samples.push_back(rates.restores_per_s);
    warmup_samples.push_back(rates.warmups_per_s);
    speedup_samples.push_back(rates.restores_per_s / rates.warmups_per_s);
  }
  const double speedup = Median(speedup_samples);
  std::fprintf(stderr,
               "[fleet] clone %.0f devices/s vs warmup re-sim %.1f devices/s: %.0fx\n",
               Median(restore_samples), Median(warmup_samples), speedup);
  if (speedup < 5.0) {
    std::fprintf(stderr, "[fleet] FAIL: snapshot-clone speedup %.2fx < 5x floor\n", speedup);
    return 1;
  }

  // Fleet size sweep.  Quick stays near 10k devices total; full mode climbs
  // to the 1M headline.  Large fleets run once — at that scale the run is
  // its own noise amortization.
  std::vector<std::uint64_t> sizes;
  if (options.quick) {
    sizes = {1'000};
  } else {
    sizes = {1'000, 100'000, 1'000'000};
  }
  for (const std::uint64_t devices : sizes) {
    const int reps = devices > 10'000 ? 1 : options.Reps();
    for (const char* governor : kGovernors) {
      std::vector<double> samples;
      for (int rep = 0; rep < reps; ++rep) {
        samples.push_back(DevicesPerSecond(devices, governor, options.threads));
      }
      const double rate = Median(samples);
      std::fprintf(stderr, "[fleet] %s x %s: %.0f devices/s (%.0f devices/min)\n",
                   SizeName(devices).c_str(), governor, rate, rate * 60.0);
    }
  }
  // Peak RSS after the largest fleet: the lazily-expanded shards and
  // streaming aggregates must keep memory flat in the fleet size.
  std::fprintf(stderr, "[fleet] peak RSS %.1f MiB\n", PeakRssMb());
  return 0;
}

// --- Soak: SIGKILL a journaled child fleet and resume it -------------------
// The child of bench/kill_resume.h's soak: a journaled fleet whose
// rendered report is the byte-compared artifact.

int RunChild(const Options& options) {
  SweepOptions sweep;
  sweep.threads = options.threads > 0 ? options.threads : 2;
  sweep.campaign.resume = options.resume;
  FleetSpec spec = BenchFleet(16'384, "pid-vs");
  spec.shard_devices = 256;  // many journal records, so a kill lands mid-fleet
  FleetRunner runner(std::move(spec), sweep);
  std::cout << RenderFleetJson(runner.Run());
  return 0;
}

int Main(int argc, char** argv) {
  Options options;
  FlagSet flags;
  flags.Switch("quick", &options.quick);
  flags.Switch("soak", &options.soak);
  flags.Switch("child", &options.child);
  flags.String("workdir", &options.soak_run.workdir);
  flags.String("resume", &options.resume);
  flags.Int("threads", &options.threads);
  flags.Int("k", &options.k);
  flags.Int("kills", &options.soak_run.kills);
  flags.Int("kill-after-ms", &options.soak_run.kill_after_ms);
  flags.ParseOrExit(argc, argv);
  if (options.child) {
    return RunChild(options);
  }
  if (options.soak) {
    options.soak_run.threads = options.threads > 0 ? options.threads : 2;
    return RunKillResumeSoak(argv[0], "fleet-soak", ".json", options.soak_run);
  }
  return RunBenchMode(options);
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) { return dcs::Main(argc, argv); }
