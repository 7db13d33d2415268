// Pering et al.'s evaluation style (related work, section 3): "Pering et
// al. assume that frames of an MPEG video, for instance, can be dropped and
// present results which combine a combination of energy savings vs frame
// rates.  Our goal was to understand the performance of the different
// scheduling algorithms without introducing the complexity of comparing
// multi-dimensional performance metrics."
//
// This bench runs the *elastic* MPEG player (late frames are dropped, the
// clip stays realtime) and reports the two-dimensional metric Pering used:
// energy saving vs delivered frame rate — making the paper's point concrete:
// once quality is allowed to degrade, every policy "saves energy", and the
// single-axis comparison the paper insisted on disappears.

#include <cstdio>
#include <iostream>

#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"

namespace dcs {
namespace {

void Run() {
  constexpr double kSeconds = 30.0;
  const char* governors[] = {"fixed-206.4", "fixed-132.7", "fixed-103.2", "fixed-59.0",
                             "PAST-peg-peg-93-98", "AVG9-peg-peg-93-98", "cycles4",
                             "deadline"};
  TextTable table({"governor", "energy (J)", "saving", "delivered fps", "on-time fps",
                   "dropped"});
  double baseline = 0.0;
  for (const char* spec : governors) {
    ExperimentConfig config;
    config.app = "mpeg";
    config.governor = spec;
    config.seed = 37;
    config.duration = SimTime::FromSecondsF(kSeconds);
    MpegConfig mpeg;
    mpeg.elastic = true;
    config.mpeg = mpeg;
    const ExperimentResult result = RunExperiment(config);
    if (baseline == 0.0) {
      baseline = result.energy_joules;
    }
    const auto video = result.streams.count("video_frame")
                           ? result.streams.at("video_frame")
                           : DeadlineMonitor::StreamStats{};
    const double expected = kSeconds * 15.0;
    const double decoded = static_cast<double>(video.total);
    const double on_time = static_cast<double>(video.total - video.missed);
    table.AddRow({result.governor, TextTable::Fixed(result.energy_joules, 2),
                  TextTable::Percent(1.0 - result.energy_joules / baseline),
                  TextTable::Fixed(decoded / kSeconds, 1),
                  TextTable::Fixed(on_time / kSeconds, 1),
                  TextTable::Fixed(expected - decoded, 0)});
  }
  table.Print(std::cout);
  std::cout
      << "\nReading: with elasticity, even the catastrophic cycles4 policy looks\n"
         "acceptable on the energy axis — it simply ships fewer frames.  The\n"
         "fixed-59.0 row is the extreme: big 'savings', a slideshow.  This is the\n"
         "multi-dimensional comparison the paper refused: under its inelastic\n"
         "assumption (\"the user should see no visible changes\"), only the\n"
         "policies delivering the full 15 fps on time are admissible at all.\n";
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout,
                    "Related work — Pering-style elastic MPEG: energy vs frame rate");
  dcs::Run();
  return 0;
}
