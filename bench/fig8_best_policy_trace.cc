// Figure 8: "Clock frequency for the MPEG application using the best
// scheduling policy from our empirical study — the scheduling policy only
// selects 59MHz or 206MHz clock settings and changes clock settings
// frequently."
//
// Runs MPEG under PAST-peg-peg-93/98 and plots the clock frequency over the
// first 40 seconds, then summarises switch rate, residency and the
// energy/deadline outcome.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/exp/artifacts.h"
#include "src/exp/ascii_plot.h"
#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/obs_export.h"
#include "src/exp/report.h"
#include "src/exp/sweep.h"

namespace dcs {
namespace {

void Run(const SweepOptions& options) {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "PAST-peg-peg-93-98";
  config.seed = 42;
  config.duration = SimTime::Seconds(40);
  config.capture_obs = options.WantsObsCapture();
  config.faults = options.faults;
  const ExperimentResult result = RunExperiment(config);
  MaybeWriteArtifacts("fig8_past_peg_peg", result);

  const TraceSeries* freq = result.sink.Find("freq_mhz");
  if (freq == nullptr || freq->empty()) {
    std::cout << "(no frequency changes recorded)\n";
    return;
  }
  PlotOptions plot;
  plot.title = "Figure 8: clock frequency, MPEG under PAST-peg-peg-93/98 (40 s)";
  plot.height = 14;
  plot.width = 120;
  plot.x_label = "time (s)";
  plot.y_label = "MHz";
  plot.y_min = 55.0;
  plot.y_max = 210.0;
  AsciiPlot(std::cout, *freq, plot);

  std::printf("\n  clock changes: %d (%.1f per second)\n", result.clock_changes,
              result.clock_changes / result.duration.ToSeconds());
  std::printf("  residency: 59.0 MHz %.1f%%, 206.4 MHz %.1f%%, everything else %.1f%%\n",
              100.0 * result.step_residency[0], 100.0 * result.step_residency[10],
              100.0 * (1.0 - result.step_residency[0] - result.step_residency[10]));
  std::printf("  frame misses: %lld  |  energy: %.2f J\n",
              static_cast<long long>(result.deadline_misses), result.energy_joules);

  ExperimentConfig baseline = config;
  baseline.governor = "fixed-206.4";
  const ExperimentResult base = RunExperiment(baseline);
  std::printf("  vs constant 206.4 MHz: %.2f J (saving %.1f%%)\n", base.energy_joules,
              100.0 * (1.0 - result.energy_joules / base.energy_joules));
  std::cout << "\nPaper shape check: the policy bangs between the extreme settings many\n"
               "times per second, misses nothing, and saves a small amount of energy\n"
               "(\"suboptimal energy savings but avoids noticeable application slowdown\").\n";

  if (options.WantsObsExport()) {
    std::vector<ExperimentResult> traced;
    traced.push_back(result);
    traced.push_back(base);
    std::string obs_error;
    if (!ExportObsArtifacts(options, traced, &obs_error)) {
      std::fprintf(stderr, "[obs] %s\n", obs_error.c_str());
    }
  }
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::SweepOptions options;
  dcs::FlagSet flags;
  dcs::RegisterSweepFlags(flags, &options);
  flags.ParseOrExit(argc, argv);
  dcs::PrintHeading(std::cout, "Figure 8 — Best policy clock trace (PAST, peg-peg, 93/98)");
  dcs::Run(options);
  return 0;
}
