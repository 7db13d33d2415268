// Related-work replication (section 3): Weiser/Govil-style *trace-driven*
// evaluation, which the paper criticises for using future information and an
// idealised energy model.
//
// We record per-quantum utilization traces from our own apps at full speed,
// then replay them through OPT (perfect hindsight), FUTURE (one-interval
// lookahead) and Weiser-PAST (needs unfinished-work knowledge a real kernel
// lacks).  The trace-predicted savings are large — which is exactly why the
// early simulation papers were optimistic — while the measured savings of
// the implementable policies (Table 2 bench) are small.

#include <cstdio>
#include <iostream>
#include <vector>

#include "src/analysis/utilization.h"
#include "src/core/oracle.h"
#include "src/core/replay_policy.h"
#include "src/exp/experiment.h"
#include "src/exp/flags.h"
#include "src/exp/report.h"
#include "src/hw/clock_table.h"
#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/sim/simulator.h"
#include "src/workload/apps.h"

namespace dcs {
namespace {

std::vector<double> RecordTrace(const char* app, double seconds) {
  ExperimentConfig config;
  config.app = app;
  config.governor = "fixed-206.4";
  config.seed = 31;
  config.duration = SimTime::FromSecondsF(seconds);
  const ExperimentResult result = RunExperiment(config, ExperimentReads::kFullResult);
  const TraceSeries* util = result.sink.Find("utilization");
  return util != nullptr ? SeriesValues(*util) : std::vector<double>{};
}

void Run() {
  const double min_speed = ClockTable::FrequencyMhz(0) / ClockTable::FrequencyMhz(10);
  TextTable table({"app", "oracle", "predicted saving", "missed intervals",
                   "mean speed"});
  for (const char* app : {"mpeg", "web", "chess", "editor"}) {
    const std::vector<double> trace = RecordTrace(app, 40.0);
    struct Row {
      const char* name;
      OracleResult result;
    };
    const Row rows[] = {
        {"OPT (hindsight)", RunOptOracle(trace, min_speed)},
        {"FUTURE (peek 1)", RunFutureOracle(trace, min_speed)},
        {"Weiser-PAST", RunWeiserPastOracle(trace, min_speed)},
    };
    for (const Row& row : rows) {
      double mean_speed = 0.0;
      for (const double s : row.result.speeds) {
        mean_speed += s;
      }
      if (!row.result.speeds.empty()) {
        mean_speed /= static_cast<double>(row.result.speeds.size());
      }
      table.AddRow({app, row.name, TextTable::Percent(row.result.SavingsPercent() / 100.0),
                    TextTable::Percent(row.result.missed_fraction),
                    TextTable::Fixed(mean_speed, 3)});
    }
  }
  table.Print(std::cout);
  std::cout << "\nReading: the idealised trace replay (quadratic energy, no idle power,\n"
               "no switch cost, future knowledge) predicts savings the real platform\n"
               "never delivers — the paper's explanation for why \"the claims made by\n"
               "previous studies\" were not \"born out by experimentation\".  OPT and\n"
               "FUTURE are unimplementable; Weiser-PAST needs unfinished-work counts\n"
               "\"the scheduler [cannot] know\" (section 3).\n";
}

// Replays a FUTURE-derived schedule on the live simulated Itsy and compares
// the oracle's promised saving with what the hardware actually delivers.
void ReplayOnRealHardware() {
  PrintHeading(std::cout,
               "Promise vs delivery: replaying the FUTURE schedule on the live Itsy");
  ExperimentConfig record;
  record.app = "mpeg";
  record.governor = "fixed-206.4";
  record.seed = 51;
  record.duration = SimTime::Seconds(30);
  const ExperimentResult recorded = RunExperiment(record, ExperimentReads::kFullResult);
  const std::vector<double> trace = SeriesValues(*recorded.sink.Find("utilization"));

  // 100 ms oracle intervals, as the early studies favoured.
  std::vector<double> intervals;
  for (std::size_t i = 0; i + 10 <= trace.size(); i += 10) {
    double sum = 0.0;
    for (std::size_t j = i; j < i + 10; ++j) {
      sum += trace[j];
    }
    intervals.push_back(sum / 10.0);
  }
  const double min_speed = ClockTable::FrequencyMhz(0) / ClockTable::FrequencyMhz(10);
  const OracleResult oracle = RunFutureOracle(intervals, min_speed);
  std::vector<int> schedule;
  for (const int step : StepsFromRelativeSpeeds(oracle.speeds)) {
    for (int k = 0; k < 10; ++k) {
      schedule.push_back(step);
    }
  }

  Simulator sim;
  Itsy itsy(sim);
  KernelConfig kernel_config;
  kernel_config.rng_seed = 1 ^ 51ull * 0x9e3779b97f4a7c15ULL;
  Kernel kernel(sim, itsy, kernel_config);
  ScheduleReplayPolicy policy(schedule);
  kernel.InstallPolicy(&policy);
  DeadlineMonitor deadlines;
  MpegConfig mpeg;
  mpeg.duration = SimTime::Seconds(30);
  AppBundle bundle = MakeMpegApp(mpeg, &deadlines, 51);
  for (auto& task : bundle.tasks) {
    kernel.AddTask(std::move(task));
  }
  kernel.Start();
  sim.RunUntil(SimTime::Seconds(32));
  const double realized =
      itsy.tape().EnergyJoules(SimTime::Zero(), SimTime::Seconds(30));

  TextTable table({"quantity", "oracle model", "live Itsy"});
  table.AddRow({"energy saving vs 206.4 MHz",
                TextTable::Percent(oracle.SavingsPercent() / 100.0),
                TextTable::Percent(1.0 - realized / recorded.energy_joules)});
  table.AddRow({"missed deadlines", "0 intervals",
                std::to_string(deadlines.TotalMissed()) + " frames"});
  table.Print(std::cout);
  std::cout << "The oracle's quadratic zero-idle-power model promises what the real\n"
               "platform cannot deliver: peripherals and nap power don't scale, busy\n"
               "time stretches into cheap idle time, and there is no continuous\n"
               "voltage to track the clock down — \"neither Govil nor Weiser\" modelled\n"
               "these costs (section 3).\n";
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) {
  dcs::FlagSet().ParseOrExit(argc, argv);  // takes no flags: any argument is an error
  dcs::PrintHeading(std::cout,
                    "Related work — Weiser-style trace-replay oracles on our app traces");
  dcs::Run();
  dcs::ReplayOnRealHardware();
  return 0;
}
