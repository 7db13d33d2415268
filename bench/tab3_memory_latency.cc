// Table 3: "Memory access time in cycles for reading individual words as
// well as full cache lines" — the EDO-DRAM timing table that produces the
// Figure 9 plateau, printed from the model together with the implied wall
// clock latency and effective-throughput consequences.

#include <cstdio>
#include <iostream>

#include "src/exp/flags.h"
#include "src/exp/report.h"
#include "src/hw/memory_model.h"

namespace dcs {
namespace {

void Run() {
  TextTable table({"Processor Freq. (MHz)", "Cycles/Mem. Reference", "Cycles/Cache Reference",
                   "word latency (ns)", "line latency (ns)"});
  for (int step = 0; step < kNumClockSteps; ++step) {
    const double mhz = ClockTable::FrequencyMhz(step);
    table.AddRow({TextTable::Fixed(mhz, 1),
                  std::to_string(MemoryModel::WordAccessCycles(step)),
                  std::to_string(MemoryModel::LineFillCycles(step)),
                  TextTable::Fixed(MemoryModel::WordAccessCycles(step) / mhz * 1000.0, 0),
                  TextTable::Fixed(MemoryModel::LineFillCycles(step) / mhz * 1000.0, 0)});
  }
  table.Print(std::cout);

  PrintHeading(std::cout, "Effect on effective throughput (MPEG memory profile)");
  const MemoryProfile mpeg{20.0, 8.0};
  TextTable effect({"transition", "freq gain", "throughput gain", "plateau?"});
  for (int step = 1; step < kNumClockSteps; ++step) {
    const double freq_gain =
        ClockTable::FrequencyMhz(step) / ClockTable::FrequencyMhz(step - 1);
    const double thr_gain = MemoryModel::EffectiveBaseHz(step, mpeg) /
                            MemoryModel::EffectiveBaseHz(step - 1, mpeg);
    char transition[48];
    std::snprintf(transition, sizeof(transition), "%.1f -> %.1f",
                  ClockTable::FrequencyMhz(step - 1), ClockTable::FrequencyMhz(step));
    effect.AddRow({transition, TextTable::Percent(freq_gain - 1.0),
                   TextTable::Percent(thr_gain - 1.0), thr_gain < 1.02 ? "YES" : ""});
  }
  effect.Print(std::cout);
  std::cout << "\nPaper shape check: \"there is an obvious non-linear increase between\n"
               "162MHz and 176.9MHz\" — that transition gains 9.1% frequency but\n"
               "almost no throughput for memory-heavy code.\n";
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout, "Table 3 — EDO-DRAM access cycles vs clock frequency");
  dcs::Run();
  return 0;
}
