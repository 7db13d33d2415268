// Governor playground: run any workload under any governor spec and inspect
// the outcome — the repository's main interactive tool.
//
// Usage:
//   governor_playground [app] [governor-spec] [seconds] [seed]
//
//   app:            mpeg | web | chess | editor        (default mpeg)
//   governor-spec:  see src/core/governor_registry.h   (default PAST-peg-peg-93-98)
//                   e.g. fixed-132.7@1.23, AVG9-one-one-50-70-vs, ondemand
//   seconds:        simulated duration                 (default: app's natural length)
//   seed:           workload jitter seed               (default 42)
//
// Examples:
//   ./governor_playground mpeg AVG9-peg-peg-93-98
//   ./governor_playground editor schedutil 70
//   ./governor_playground chess fixed-59.0 120 7

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "src/core/governor_registry.h"
#include "src/exp/artifacts.h"
#include "src/exp/ascii_plot.h"
#include "src/exp/experiment.h"
#include "src/exp/report.h"

int main(int argc, char** argv) {
  using namespace dcs;

  ExperimentConfig config;
  config.app = argc > 1 ? argv[1] : "mpeg";
  config.governor = argc > 2 ? argv[2] : "PAST-peg-peg-93-98";
  if (argc > 3) {
    config.duration = SimTime::FromSecondsF(std::atof(argv[3]));
  }
  config.seed = argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 42;

  // Validate the spec up front so typos produce a friendly message.
  std::string error;
  auto probe = MakeGovernor(config.governor, &error);
  if (probe == nullptr && !error.empty()) {
    std::cerr << "bad governor spec '" << config.governor << "': " << error << "\n"
              << "examples: fixed-206.4  fixed-132.7@1.23  PAST-peg-peg-93-98\n"
              << "          AVG9-one-one-50-70-vs  WIN10-peg-peg-93-98  cycles4\n"
              << "          ondemand  schedutil  none\n";
    return 1;
  }

  const ExperimentResult result = RunExperiment(config, ExperimentReads::kFullResult);
  // Honour DCS_ARTIFACTS like the benches do.
  MaybeWriteArtifacts("playground_" + config.app + "_" + config.governor, result);

  PrintHeading(std::cout, "Run summary");
  TextTable summary({"metric", "value"});
  summary.AddRow({"app", result.app});
  summary.AddRow({"governor", result.governor});
  summary.AddRow({"duration", result.duration.ToString()});
  summary.AddRow({"energy (DAQ)", TextTable::Fixed(result.energy_joules, 2) + " J"});
  summary.AddRow({"energy (exact)", TextTable::Fixed(result.exact_energy_joules, 2) + " J"});
  summary.AddRow({"average power", TextTable::Fixed(result.average_watts, 3) + " W"});
  summary.AddRow({"mean utilization", TextTable::Percent(result.avg_utilization)});
  summary.AddRow({"clock changes", std::to_string(result.clock_changes)});
  summary.AddRow({"voltage transitions", std::to_string(result.voltage_transitions)});
  summary.AddRow({"switch stall total", result.total_stall.ToString()});
  summary.AddRow({"deadline events", std::to_string(result.deadline_events)});
  summary.AddRow({"deadline misses", std::to_string(result.deadline_misses)});
  summary.AddRow({"worst lateness", result.worst_lateness.ToString()});
  summary.Print(std::cout);

  PrintHeading(std::cout, "Per-stream deadlines");
  TextTable streams({"stream", "events", "missed", "worst lateness"});
  for (const auto& [name, stats] : result.streams) {
    streams.AddRow({name, std::to_string(stats.total), std::to_string(stats.missed),
                    stats.worst_lateness.ToString()});
  }
  streams.Print(std::cout);

  PrintHeading(std::cout, "Per-task CPU time");
  TextTable tasks({"task", "cpu seconds", "share of run"});
  for (const auto& [name, seconds] : result.task_cpu_seconds) {
    tasks.AddRow({name, TextTable::Fixed(seconds, 2),
                  TextTable::Percent(seconds / result.duration.ToSeconds())});
  }
  tasks.Print(std::cout);

  PrintHeading(std::cout, "Clock-step residency");
  TextTable residency({"step", "MHz", "share of wall time"});
  for (int step = 0; step < kNumClockSteps; ++step) {
    if (result.step_residency[static_cast<std::size_t>(step)] > 0.0005) {
      residency.AddRow({std::to_string(step),
                        TextTable::Fixed(ClockTable::FrequencyMhz(step), 1),
                        TextTable::Percent(result.step_residency[static_cast<std::size_t>(step)])});
    }
  }
  residency.Print(std::cout);

  const TraceSeries* util = result.sink.Find("utilization");
  if (util != nullptr && !util->empty()) {
    PlotOptions options;
    options.title = "Utilization per quantum";
    options.height = 12;
    options.width = 110;
    options.x_label = "time (s)";
    options.y_label = "utilization";
    options.y_min = 0.0;
    options.y_max = 1.0;
    AsciiPlot(std::cout, *util, options);
  }
  const TraceSeries* freq = result.sink.Find("freq_mhz");
  if (freq != nullptr && freq->size() > 1) {
    PlotOptions options;
    options.title = "Clock frequency";
    options.height = 10;
    options.width = 110;
    options.x_label = "time (s)";
    options.y_label = "MHz";
    options.y_min = 55.0;
    options.y_max = 210.0;
    AsciiPlot(std::cout, *freq, options);
  }
  return 0;
}
