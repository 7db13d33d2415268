// Ablation: the scheduling-interval length.
//
// Weiser et al. and Govil et al. argued clock adjustment "should examine a
// 10-50ms interval"; the paper used Linux's native 10 ms quantum and found
// even that reacts too slowly once smoothing is added.  This bench sweeps
// the quantum (and with it the policy evaluation interval) for PAST-peg-peg
// on MPEG and TalkingEditor.

#include <cstdio>
#include <iostream>

#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"

namespace dcs {
namespace {

void SweepApp(const char* app, double seconds) {
  char heading[96];
  std::snprintf(heading, sizeof(heading), "%s under PAST-peg-peg-93/98 vs quantum length",
                app);
  PrintHeading(std::cout, heading);
  TextTable table({"quantum", "energy (J)", "misses", "worst lateness", "clock chg"});
  for (const int quantum_ms : {2, 5, 10, 20, 50, 100}) {
    ExperimentConfig config;
    config.app = app;
    config.governor = "PAST-peg-peg-93-98";
    config.seed = 42;
    config.duration = SimTime::FromSecondsF(seconds);
    config.kernel.quantum = SimTime::Millis(quantum_ms);
    const ExperimentResult result = RunExperiment(config);
    char quantum_label[32];
    std::snprintf(quantum_label, sizeof(quantum_label), "%d ms", quantum_ms);
    table.AddRow({quantum_label, TextTable::Fixed(result.energy_joules, 2),
                  std::to_string(result.deadline_misses),
                  result.worst_lateness.ToString(),
                  std::to_string(result.clock_changes)});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout,
                    "Ablation — scheduling quantum sweep (Weiser/Govil's 10-50 ms claim)");
  dcs::SweepApp("mpeg", 30.0);
  dcs::SweepApp("editor", 95.0);
  std::cout << "\nReading: very short quanta (2-5 ms) track demand tightly but multiply\n"
               "the switch count and its stall overhead; beyond ~50 ms the policy\n"
               "reacts too late for MPEG's 67 ms frame deadlines — consistent with the\n"
               "earlier studies' 10-50 ms guidance and the paper's choice of 10 ms.\n";
  return 0;
}
