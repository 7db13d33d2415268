// Figure 4: the same utilization traces smoothed with a 100 ms moving
// average (window of 10 quanta).  "For most applications, patterns in the
// utilization are easier to see if you plot the utilization using a 100ms
// moving average" — but MPEG stays sporadic even here because of
// inter-frame variation.

#include <cstdio>
#include <iostream>

#include "src/analysis/utilization.h"
#include "src/exp/ascii_plot.h"
#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"

namespace dcs {
namespace {

void PlotApp(const char* app, double window_seconds) {
  ExperimentConfig config;
  config.app = app;
  config.governor = "fixed-206.4";
  config.seed = 42;
  config.duration = SimTime::FromSecondsF(window_seconds);
  const ExperimentResult result = RunExperiment(config, ExperimentReads::kFullResult);
  const TraceSeries* util = result.sink.Find("utilization");
  if (util == nullptr || util->empty()) {
    return;
  }
  const TraceSeries smoothed = MovingAverageSeries(*util, 10);

  char title[128];
  std::snprintf(title, sizeof(title),
                "Figure 4: %s — utilization, 100 ms moving average (%.0f s window)", app,
                window_seconds);
  PlotOptions options;
  options.title = title;
  options.height = 16;
  options.width = 110;
  options.x_label = "time (s)";
  options.y_label = "utilization";
  options.y_min = 0.0;
  options.y_max = 1.0;
  AsciiPlot(std::cout, smoothed, options);

  // Residual variance after smoothing: the paper stresses MPEG still varies
  // by tens of points even at 100 ms (and 60-80% at 1 s).
  const auto values = SeriesValues(smoothed);
  const OscillationStats stats =
      AnalyzeOscillation(values, values.size() > 50 ? 20 : 0);
  std::printf("  smoothed range: %.2f .. %.2f (spread %.2f), mean %.2f\n", stats.min,
              stats.max, stats.amplitude, stats.mean);
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout, "Figure 4 — Utilization using 100ms moving average");
  dcs::PlotApp("mpeg", 30.0);
  dcs::PlotApp("web", 35.0);
  dcs::PlotApp("chess", 30.0);
  dcs::PlotApp("editor", 40.0);
  std::cout << "\nPaper shape check: MPEG remains sporadic (inter-frame variation);\n"
               "Chess/TalkingEditor user-interaction structure becomes visible.\n";
  return 0;
}
