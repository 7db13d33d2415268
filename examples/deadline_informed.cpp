// Deadline-informed scheduling walkthrough — the paper's conclusion, made
// runnable.
//
// The paper ends: "we feel that [our results] serve to stop us from
// attempting to devise clever heuristics ... Our immediate future work is to
// provide 'deadline' mechanisms in Linux."  This example runs the same MPEG
// clip three ways and prints the story:
//
//   1. the best oblivious heuristic (PAST-peg-peg-93/98) — safe, tiny savings;
//   2. the deadline-informed governor — the kernel finally knows how much
//      work is due when, and stretches it "as late as possible";
//   3. deadline-informed + voltage scaling — the V^2 payoff.

#include <cstdio>
#include <iostream>

#include "src/exp/ascii_plot.h"
#include "src/exp/experiment.h"
#include "src/exp/report.h"

int main() {
  using namespace dcs;

  PrintHeading(std::cout, "60 s of MPEG, three ways");
  TextTable table({"governor", "energy (J)", "saving vs 206.4", "frame misses",
                   "mean util", "time at <=162 MHz"});

  double baseline = 0.0;
  for (const char* spec :
       {"fixed-206.4", "PAST-peg-peg-93-98", "deadline", "deadline-vs"}) {
    ExperimentConfig config;
    config.app = "mpeg";
    config.governor = spec;
    config.seed = 42;
    const ExperimentResult result = RunExperiment(config);
    if (baseline == 0.0) {
      baseline = result.energy_joules;
    }
    double slow_share = 0.0;
    for (int step = 0; step <= 7; ++step) {
      slow_share += result.step_residency[static_cast<std::size_t>(step)];
    }
    table.AddRow({result.governor, TextTable::Fixed(result.energy_joules, 2),
                  TextTable::Percent(1.0 - result.energy_joules / baseline),
                  std::to_string(result.streams.count("video_frame")
                                     ? result.streams.at("video_frame").missed
                                     : 0),
                  TextTable::Percent(result.avg_utilization),
                  TextTable::Percent(slow_share)});
  }
  table.Print(std::cout);

  // Show the clock trace of the informed governor: instead of banging
  // between 59 and 206.4 like Figure 8, it hovers near the per-frame
  // feasible minimum.
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = "deadline-vs";
  config.seed = 42;
  config.duration = SimTime::Seconds(10);
  const ExperimentResult result = RunExperiment(config, ExperimentReads::kFullResult);
  const TraceSeries* freq = result.sink.Find("freq_mhz");
  if (freq != nullptr) {
    PlotOptions options;
    options.title = "Clock trace under deadline-vs (compare with Figure 8's 59/206 banging)";
    options.height = 12;
    options.width = 110;
    options.x_label = "time (s)";
    options.y_label = "MHz";
    options.y_min = 55.0;
    options.y_max = 210.0;
    AsciiPlot(std::cout, *freq, options);
  }

  std::cout << "\nThe lesson, twenty-five years on: the Itsy didn't need a cleverer\n"
               "heuristic — it needed the application to say what 'on time' meant.\n";
  return 0;
}
