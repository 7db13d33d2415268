// Section 5.3's comprehensive study: "We conducted a comprehensive study and
// varied the value of N from 0 (the PAST policy) to 10 with each combination
// of the speed-setting policies."
//
// For every N in 0..10 and every up/down speed-policy combination in
// {one, double, peg}^2 (with Pering's 50/70 thresholds), runs 30 s of MPEG
// and reports energy, deadline misses and clock changes.  The paper's
// conclusion to verify: "most of them resulted in equivalent (and poor)
// behavior" — either parked at high speed (no savings) or missing deadlines.
//
// The 99-point grid fans out over the deterministic sweep engine; pass
// --threads=N (and --progress) to control it.  The table is byte-identical
// for any thread count.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/obs_export.h"
#include "src/exp/report.h"
#include "src/exp/sweep.h"

namespace dcs {
namespace {

void Run(const SweepOptions& options) {
  const char* speed_policies[] = {"one", "double", "peg"};
  constexpr double kSeconds = 30.0;

  ExperimentConfig baseline_config;
  baseline_config.app = "mpeg";
  baseline_config.governor = "fixed-206.4";
  baseline_config.seed = 7;
  baseline_config.duration = SimTime::FromSecondsF(kSeconds);
  baseline_config.capture_obs = options.WantsObsCapture();
  baseline_config.faults = options.faults;

  // Job 0 is the constant-speed baseline; the AVG_N grid follows in the same
  // nesting order as the paper's study so the table rows keep their order.
  std::vector<ExperimentConfig> configs;
  configs.push_back(baseline_config);
  for (int n = 0; n <= 10; ++n) {
    for (const char* up : speed_policies) {
      for (const char* down : speed_policies) {
        char spec[64];
        std::snprintf(spec, sizeof(spec), "AVG%d-%s-%s-50-70", n, up, down);
        configs.push_back(baseline_config);
        configs.back().governor = spec;
      }
    }
  }
  const std::vector<ExperimentResult> results = RunSweep(configs, options);
  std::string obs_error;
  if (!ExportObsArtifacts(options, results, &obs_error)) {
    std::fprintf(stderr, "[obs] %s\n", obs_error.c_str());
  }

  const double baseline = results.front().energy_joules;
  std::printf("Baseline (constant 206.4 MHz): %.2f J over %.0f s\n\n", baseline, kSeconds);

  TextTable table({"policy", "energy (J)", "saving", "misses", "worst late", "clock chg"});
  int safe_with_savings = 0;
  int total = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    const ExperimentResult& result = results[i];
    const double saving = 1.0 - result.energy_joules / baseline;
    table.AddRow({configs[i].governor, TextTable::Fixed(result.energy_joules, 2),
                  TextTable::Percent(saving),
                  std::to_string(result.deadline_misses),
                  result.worst_lateness.ToString(),
                  std::to_string(result.clock_changes)});
    ++total;
    if (result.deadline_misses == 0 && saving > 0.015) {
      ++safe_with_savings;
    }
  }
  table.Print(std::cout);
  std::printf("\n%d of %d AVG_N configurations are both deadline-safe and save more\n"
              "than 1.5%% energy.  The paper's verdict: \"currently proposed algorithms\n"
              "consistently fail to achieve their goal of saving power while not\n"
              "causing user applications to change their interactive behavior.\"\n",
              safe_with_savings, total);
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::SweepOptions options;
  dcs::FlagSet flags;
  dcs::RegisterSweepFlags(flags, &options);
  flags.ParseOrExit(argc, argv);
  dcs::PrintHeading(std::cout,
                    "Section 5.3 sweep — AVG_N x {one,double,peg}^2, thresholds 50/70, "
                    "30 s MPEG");
  dcs::Run(options);
  return 0;
}
