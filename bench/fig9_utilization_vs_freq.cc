// Figure 9: "Non-linear change in Utilization with Clock Frequency" — the
// MPEG benchmark's utilization vs fixed clock frequency, showing the
// distinct plateau between 162.2 and 176.9 MHz caused by the EDO-DRAM
// latency steps of Table 3.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/exp/ascii_plot.h"
#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/obs_export.h"
#include "src/exp/report.h"
#include "src/exp/sweep.h"
#include "src/hw/memory_model.h"

namespace dcs {
namespace {

void Run(const SweepOptions& options) {
  constexpr int kFirstStep = 4;
  constexpr int kLastStep = 10;
  std::vector<ExperimentConfig> configs;
  for (int step = kFirstStep; step <= kLastStep; ++step) {
    char spec[32];
    std::snprintf(spec, sizeof(spec), "fixed-%.1f", ClockTable::FrequencyMhz(step));
    ExperimentConfig config;
    config.app = "mpeg";
    config.governor = spec;
    config.seed = 42;
    config.duration = SimTime::Seconds(30);
    config.capture_obs = options.WantsObsCapture();
    config.faults = options.faults;
    configs.push_back(config);
  }
  const std::vector<ExperimentResult> results = RunSweep(configs, options);
  std::string obs_error;
  if (!ExportObsArtifacts(options, results, &obs_error)) {
    std::fprintf(stderr, "[obs] %s\n", obs_error.c_str());
  }

  std::vector<double> mhz;
  std::vector<double> utilization;
  TextTable table({"step", "freq (MHz)", "utilization", "delta vs prev step",
                   "word cyc", "line cyc"});
  double previous = 0.0;
  for (int step = kFirstStep; step <= kLastStep; ++step) {
    const ExperimentResult& result = results[static_cast<std::size_t>(step - kFirstStep)];
    mhz.push_back(ClockTable::FrequencyMhz(step));
    utilization.push_back(100.0 * result.avg_utilization);
    table.AddRow({std::to_string(step), TextTable::Fixed(mhz.back(), 1),
                  TextTable::Fixed(utilization.back(), 1),
                  step == kFirstStep ? "-" : TextTable::Fixed(utilization.back() - previous, 1),
                  std::to_string(MemoryModel::WordAccessCycles(step)),
                  std::to_string(MemoryModel::LineFillCycles(step))});
    previous = utilization.back();
  }

  PlotOptions plot;
  plot.title = "Figure 9: MPEG utilization vs clock frequency (plateau at 162-177 MHz)";
  plot.height = 16;
  plot.width = 100;
  plot.x_label = "clock frequency (MHz)";
  plot.y_label = "utilization (%)";
  AsciiPlot(std::cout, mhz, utilization, plot);
  table.Print(std::cout);

  std::cout << "\nPaper shape check: utilization falls with frequency except between\n"
               "162.2 and 176.9 MHz, where the memory-access cycle jump (15->18 word,\n"
               "50->60 line, Table 3) eats almost the whole frequency gain.\n";
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::SweepOptions options;
  dcs::FlagSet flags;
  dcs::RegisterSweepFlags(flags, &options);
  flags.ParseOrExit(argc, argv);
  dcs::PrintHeading(std::cout, "Figure 9 — Non-linear utilization vs clock frequency");
  dcs::Run(options);
  return 0;
}
