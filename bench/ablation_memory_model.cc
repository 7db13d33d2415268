// Ablation: does the EDO-DRAM model (Table 3) matter?
//
// Re-runs the Figure 9 sweep with the MPEG decode's memory profile zeroed
// (pure-compute scaling).  Without the memory model the utilization curve is
// a smooth hyperbola — the plateau disappears — and the app's feasibility
// boundary moves: demand calibrated against the memory model finishes much
// earlier at low clocks when stalls are removed.

#include <cstdio>
#include <iostream>

#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"
#include "src/hw/memory_model.h"

namespace dcs {
namespace {

double UtilizationAt(int step, bool with_memory_model) {
  char spec[32];
  std::snprintf(spec, sizeof(spec), "fixed-%.1f", ClockTable::FrequencyMhz(step));
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = spec;
  config.seed = 42;
  config.duration = SimTime::Seconds(20);
  MpegConfig mpeg;
  if (!with_memory_model) {
    // Normalise the flat-memory variant so decode takes the same time at the
    // feasibility boundary (132.7 MHz) as the real profile does there; the
    // curves then differ only in *shape*.  Note the real model is *kinder*
    // to low clocks: stall cycles shrink as the clock slows, so pure-linear
    // scaling stretches low-frequency execution more.
    const MemoryProfile real = mpeg.video_profile;
    const double real_ms_at_132 =
        mpeg.mean_decode_ms_at_top *
        (MemoryModel::EffectiveBaseHz(ClockTable::MaxStep(), real) /
         MemoryModel::EffectiveBaseHz(5, real));
    mpeg.mean_decode_ms_at_top =
        real_ms_at_132 * ClockTable::FrequencyMhz(5) / ClockTable::FrequencyMhz(10);
    mpeg.video_profile = MemoryProfile{};
    mpeg.audio_profile = MemoryProfile{};
  }
  config.mpeg = mpeg;
  return RunExperiment(config).avg_utilization;
}

void Run() {
  TextTable table({"freq (MHz)", "util, Table 3 model", "delta", "util, flat memory",
                   "delta"});
  double prev_real = 0.0;
  double prev_flat = 0.0;
  for (int step = 5; step <= 10; ++step) {
    const double real = 100.0 * UtilizationAt(step, true);
    const double flat = 100.0 * UtilizationAt(step, false);
    table.AddRow({TextTable::Fixed(ClockTable::FrequencyMhz(step), 1),
                  TextTable::Fixed(real, 1),
                  step == 5 ? "-" : TextTable::Fixed(real - prev_real, 1),
                  TextTable::Fixed(flat, 1),
                  step == 5 ? "-" : TextTable::Fixed(flat - prev_flat, 1)});
    prev_real = real;
    prev_flat = flat;
  }
  table.Print(std::cout);
  std::cout << "\nReading: with Table 3 in place the 162.2 -> 176.9 MHz transition is\n"
               "nearly flat (the paper's plateau); with flat memory every step buys a\n"
               "similar utilization drop.  The non-linear memory/CPU speed mismatch the\n"
               "paper (and Martin) observed is entirely the DRAM table's doing.\n";
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout, "Ablation — Figure 9 with and without the EDO-DRAM model");
  dcs::Run();
  return 0;
}
