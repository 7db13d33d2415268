// Figure 3: processor utilization per 10 ms scheduling quantum for each of
// the four benchmark applications, running at a fixed 206.4 MHz with no
// clock policy (exactly the configuration the paper plots).
//
// Prints one ASCII plot per application over a 30-40 s window plus the
// summary statistics the paper discusses (bimodality, mean utilization).

#include <cstdio>
#include <string>
#include <iostream>

#include "src/exp/artifacts.h"
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
  MaybeWriteArtifacts(std::string("fig3_") + app, result);

  const TraceSeries* util = result.sink.Find("utilization");
  if (util == nullptr || util->empty()) {
    std::cout << "(no utilization recorded for " << app << ")\n";
    return;
  }

  char title[128];
  std::snprintf(title, sizeof(title),
                "Figure 3: %s — utilization per 10 ms quantum @ 206.4 MHz (%.0f s window)",
                app, window_seconds);
  PlotOptions options;
  options.title = title;
  options.height = 16;
  options.width = 110;
  options.x_label = "time (s)";
  options.y_label = "utilization";
  options.y_min = 0.0;
  options.y_max = 1.0;
  AsciiPlot(std::cout, *util, options);

  // Bimodality: the paper notes "the system is usually either completely
  // idle or completely busy during a given quantum".
  int saturated = 0;
  int idle = 0;
  for (const TracePoint& p : util->points()) {
    if (p.value > 0.9) {
      ++saturated;
    } else if (p.value < 0.1) {
      ++idle;
    }
  }
  std::printf("  mean utilization %.1f%%  |  quanta >90%% busy: %.1f%%  |  "
              "quanta <10%% busy: %.1f%%  |  bimodal fraction: %.1f%%\n",
              100.0 * result.avg_utilization,
              100.0 * saturated / static_cast<double>(util->size()),
              100.0 * idle / static_cast<double>(util->size()),
              100.0 * (saturated + idle) / static_cast<double>(util->size()));
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout, "Figure 3 — Utilization using 10ms quanta @ 206.4 MHz");
  dcs::PlotApp("mpeg", 30.0);
  dcs::PlotApp("web", 35.0);
  dcs::PlotApp("chess", 30.0);
  dcs::PlotApp("editor", 40.0);
  std::cout << "\nPaper shape check: MPEG is sporadic at frame granularity; Web is\n"
               "mostly idle with event bursts; Chess alternates idle thinking and\n"
               "saturated search; TalkingEditor is bursty then long synthesis runs.\n";
  return 0;
}
