// Campaign soak: proves the checkpoint/resume journal end-to-end by
// SIGKILLing a child campaign mid-run and resuming it, then asserting the
// resumed run's stdout is byte-identical to an uninterrupted reference run.
//
// The parent (default mode) runs bench/kill_resume.h's soak over this same
// binary in --child mode: an uninterrupted reference (ref.txt), --kills
// SIGKILLed victims over one journal, and a final resume (soak.txt).
// Success requires soak.txt == ref.txt byte for byte: replayed slots must
// be indistinguishable from computed ones.  The journal and quarantine
// report are left in --workdir for CI to archive.
//
//   --workdir=DIR        scratch/artifact directory (default: mkdtemp /tmp)
//   --kills=N            number of SIGKILL rounds (default 2)
//   --kill-after-ms=MS   wall-clock budget before each kill (default 150)
//   --threads=N          forwarded to the child campaigns (default 2)
//
// The child grid is a representative governor slate x 4 seeds on 60 s of
// MPEG under a moderate fault storm — enough simulated time that a 150 ms
// kill lands mid-campaign, yet the whole soak stays inside a few seconds.

#include <iostream>
#include <string>
#include <vector>

#include "bench/kill_resume.h"
#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"
#include "src/exp/sweep.h"

namespace dcs {
namespace {

constexpr const char* kGovernors[] = {
    "none",          "fixed-132.7",         "PAST-peg-peg-93-98",
    "AVG9-one-one-50-70", "PAST-peg-peg-93-98-vs", "deadline",
};
constexpr std::uint64_t kSeeds[] = {7, 11, 13, 17};
constexpr double kSeconds = 60.0;

// --- Child: one (possibly resumed) campaign over the soak grid -------------

int RunChild(const SweepOptions& options) {
  std::vector<ExperimentConfig> configs;
  for (const std::uint64_t seed : kSeeds) {
    for (const char* governor : kGovernors) {
      ExperimentConfig config;
      config.app = "mpeg";
      config.governor = governor;
      config.seed = seed;
      config.duration = SimTime::FromSecondsF(kSeconds);
      config.faults = "storm=0.4,seed=11";
      configs.push_back(config);
    }
  }
  const std::vector<ExperimentResult> results = RunSweep(configs, options);

  TextTable table({"seed", "governor", "energy (J)", "misses", "injected", "violations"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    table.AddRow({std::to_string(configs[i].seed), r.governor,
                  TextTable::Fixed(r.energy_joules, 3), std::to_string(r.deadline_misses),
                  std::to_string(r.faults.injected_total),
                  std::to_string(r.faults.invariant_violations)});
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  // One strict FlagSet covers both modes: the parent's orchestration knobs
  // plus the full sweep/campaign surface the child consumes (--resume,
  // --threads, ...).  The parent simply ignores the sweep-only flags, and a
  // typo or duplicate in either mode exits 2 instead of parsing as garbage.
  dcs::SweepOptions options;
  bool child = false;
  dcs::KillResumeOptions soak;
  dcs::FlagSet flags;
  dcs::RegisterSweepFlags(flags, &options);
  flags.Switch("child", &child);
  flags.String("workdir", &soak.workdir);
  flags.Int("kills", &soak.kills);
  flags.Int("kill-after-ms", &soak.kill_after_ms);
  flags.ParseOrExit(argc, argv);
  if (child) {
    return dcs::RunChild(options);
  }
  soak.threads = options.threads > 0 ? options.threads : 2;
  return dcs::RunKillResumeSoak(argv[0], "soak", ".txt", soak);
}
