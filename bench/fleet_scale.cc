// Fleet-scale bench: times the snapshot/clone fleet layer and guards its
// two load-bearing promises.
//
//   1. Cloning a device from its cell's warmup image must be at least 5x
//      faster than re-simulating the warmup (the whole point of the image);
//      the run fails if the measured speedup ever drops below that.
//   2. The fleet report must be byte-identical across --threads and shard
//      sizes (the merge-algebra contract); the run fails on any mismatch.
//
// The sweep then runs fleet size x governor combinations and records
// devices/sec plus peak RSS as fleet.* rows of a dcs-bench/1 run object —
// the same format perf_harness emits, appended to the committed
// BENCH_dcs.json trajectory and gated by scripts/bench_diff.py.
//
// Flags (bench mode):
//   --out=FILE     write the JSON run object to FILE (default: stdout)
//   --label=STR    label recorded in the run object (default: "local")
//   --quick        ~10k devices total: CI-friendly.  Full mode sweeps
//                  {1k, 100k, 1M} devices per governor; the 1M rows are the
//                  headline (target: >= 100k devices/min on one box).
//   --k=N          override the repetition count for the small rows
//   --threads=N    fleet worker threads (default: all hardware threads)
//
// Soak mode (--soak) reuses the campaign_soak pattern to prove the fleet
// journal end-to-end: a child fleet (--child) is SIGKILLed mid-run and
// resumed over the same journal; the final resumed fleet JSON must be
// byte-identical to an uninterrupted reference run.
//
//   --soak --workdir=DIR --kills=N --kill-after-ms=MS --threads=N

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
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
  std::string out;
  std::string label = "local";
  // soak/child plumbing
  bool soak = false;
  bool child = false;
  std::string workdir;
  std::string resume;
  int kills = 2;
  int kill_after_ms = 150;

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

void AddRow(BenchReport& report, const std::string& name, const std::string& kind,
            const std::string& unit, bool higher_is_better, std::vector<double> samples) {
  BenchResult result;
  result.name = name;
  result.kind = kind;
  result.unit = unit;
  result.higher_is_better = higher_is_better;
  result.median = Median(samples);
  result.samples = std::move(samples);
  report.Add(std::move(result));
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

  BenchReport report(options.label, options.Reps(), options.quick);

  // Clone-vs-warmup rates, repeated so the rows carry noise information.
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
  AddRow(report, "fleet.clone.restores_per_s", "micro", "devices/s", true, restore_samples);
  AddRow(report, "fleet.clone.warmups_per_s", "micro", "devices/s", true, warmup_samples);
  AddRow(report, "fleet.clone_speedup", "micro", "x", true, speedup_samples);

  // Fleet size sweep.  Quick stays near 10k devices total; full mode climbs
  // to the 1M headline.  Large fleets run once — at that scale the run is
  // its own noise amortization.
  // Quick keeps only the 1k rows so its row names stay comparable (and
  // therefore gateable) against a committed full run of the same sweep.
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
      AddRow(report, "fleet." + SizeName(devices) + "." + governor + ".devices_per_s",
             "micro", "devices/s", true, std::move(samples));
    }
  }
  // Peak RSS after the largest fleet: the lazily-expanded shards and
  // streaming aggregates must keep memory flat in the fleet size.
  AddRow(report, "fleet.peak_rss_mb", "micro", "MiB", false, {PeakRssMb()});

  if (options.out.empty()) {
    report.WriteJson(std::cout);
  } else {
    std::ofstream os(options.out, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "[fleet] cannot open --out=%s\n", options.out.c_str());
      return 1;
    }
    report.WriteJson(os);
  }
  return 0;
}

// --- Soak: SIGKILL a journaled child fleet and resume it -------------------
// Same choreography as bench/campaign_soak.cc, but the child is a fleet and
// the byte-compared artifact is the rendered fleet report.

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

std::string SelfExe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

pid_t SpawnChild(const std::string& exe, const std::string& journal, int threads,
                 const std::string& stdout_path) {
  const pid_t pid = ::fork();
  if (pid != 0) {
    return pid;
  }
  const int fd = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0) {
    std::perror("fleet_scale child: redirect stdout");
    ::_exit(127);
  }
  ::close(fd);
  const std::string resume = "--resume=" + journal;
  const std::string threads_arg = "--threads=" + std::to_string(threads);
  ::execl(exe.c_str(), exe.c_str(), "--child", resume.c_str(), threads_arg.c_str(),
          static_cast<char*>(nullptr));
  std::perror("fleet_scale child: exec");
  ::_exit(127);
}

int WaitChild(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    return -9999;
  }
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  if (WIFSIGNALED(status)) {
    return -WTERMSIG(status);
  }
  return -9998;
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return false;
  }
  std::ostringstream os;
  os << is.rdbuf();
  *out = os.str();
  return true;
}

int RunSoak(const char* argv0, Options options) {
  if (options.workdir.empty()) {
    char tmpl[] = "/tmp/fleet_soak.XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      std::perror("fleet_scale: mkdtemp");
      return 1;
    }
    options.workdir = made;
  } else {
    const std::string cmd = "mkdir -p '" + options.workdir + "'";
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "fleet_scale: cannot create workdir '%s'\n",
                   options.workdir.c_str());
      return 1;
    }
  }
  const int threads = options.threads > 0 ? options.threads : 2;
  const std::string exe = SelfExe(argv0);
  const std::string ref_journal = options.workdir + "/ref.journal";
  const std::string soak_journal = options.workdir + "/soak.journal";
  const std::string ref_json = options.workdir + "/ref.json";
  const std::string soak_json = options.workdir + "/soak.json";
  std::fprintf(stderr, "[fleet-soak] workdir %s, %d kill(s) after %d ms, %d thread(s)\n",
               options.workdir.c_str(), options.kills, options.kill_after_ms, threads);

  const int ref_rc = WaitChild(SpawnChild(exe, ref_journal, threads, ref_json));
  if (ref_rc != 0) {
    std::fprintf(stderr, "[fleet-soak] FAIL: reference fleet exited %d\n", ref_rc);
    return 1;
  }

  for (int round = 0; round < options.kills; ++round) {
    const pid_t victim = SpawnChild(exe, soak_journal, threads, soak_json);
    std::this_thread::sleep_for(std::chrono::milliseconds(options.kill_after_ms));
    ::kill(victim, SIGKILL);
    const int rc = WaitChild(victim);
    if (rc == 0) {
      std::fprintf(stderr,
                   "[fleet-soak] round %d: fleet finished before the kill; consider "
                   "lowering --kill-after-ms\n",
                   round + 1);
    } else {
      std::fprintf(stderr, "[fleet-soak] round %d: killed (status %d)\n", round + 1, rc);
    }
  }

  const int final_rc = WaitChild(SpawnChild(exe, soak_journal, threads, soak_json));
  if (final_rc != 0) {
    std::fprintf(stderr, "[fleet-soak] FAIL: resumed fleet exited %d\n", final_rc);
    return 1;
  }

  std::string ref_bytes;
  std::string soak_bytes;
  if (!ReadFileBytes(ref_json, &ref_bytes) || !ReadFileBytes(soak_json, &soak_bytes)) {
    std::fprintf(stderr, "[fleet-soak] FAIL: cannot read captured reports\n");
    return 1;
  }
  if (ref_bytes != soak_bytes) {
    std::fprintf(stderr,
                 "[fleet-soak] FAIL: resumed fleet report differs from reference "
                 "(%zu vs %zu bytes)\n[fleet-soak]   reference: %s\n"
                 "[fleet-soak]   resumed:   %s\n",
                 ref_bytes.size(), soak_bytes.size(), ref_json.c_str(), soak_json.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "[fleet-soak] PASS: %d kill/resume round(s); resumed fleet report "
               "byte-identical to the uninterrupted reference (%zu bytes)\n",
               options.kills, ref_bytes.size());
  return 0;
}

int Main(int argc, char** argv) {
  Options options;
  FlagSet flags;
  flags.Switch("quick", &options.quick);
  flags.Switch("soak", &options.soak);
  flags.Switch("child", &options.child);
  flags.String("out", &options.out);
  flags.String("label", &options.label);
  flags.String("workdir", &options.workdir);
  flags.String("resume", &options.resume);
  flags.Int("threads", &options.threads);
  flags.Int("k", &options.k);
  flags.Int("kills", &options.kills);
  flags.Int("kill-after-ms", &options.kill_after_ms);
  flags.ParseOrExit(argc, argv);
  if (options.child) {
    return RunChild(options);
  }
  if (options.soak) {
    return RunSoak(argv[0], options);
  }
  return RunBenchMode(options);
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) { return dcs::Main(argc, argv); }
