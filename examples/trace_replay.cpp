// Trace record & replay: the paper's repeatability methodology.
//
// "To capture repeatable behavior for the interactive applications, we used
// a tracing mechanism that recorded timestamped input events and then
// allowed us to replay those events with millisecond accuracy. ... We
// measured multiple runs of each workload; in general, we found the 95%
// confidence interval of the energy to be less than 0.7% of the mean
// energy."
//
// This example records a Web browse input trace, saves it to CSV, reloads
// it, replays it five times with sub-millisecond replay jitter, and reports
// the energy confidence interval.  It then does the same round trip for an
// open-loop server request set: written as "service_us" CSV, reloaded, and
// run both ways, which must give identical results.

#include <iostream>
#include <sstream>

#include "src/daq/daq.h"
#include "src/daq/stats.h"
#include "src/exp/report.h"
#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/sim/simulator.h"
#include "src/workload/apps.h"
#include "src/workload/java_vm.h"
#include "src/workload/server.h"
#include "src/workload/web.h"

int main() {
  using namespace dcs;

  // 1. "Record" the browse session (scripted scenario builder + seed).
  const InputTrace master = MakeWebBrowseTrace(/*seed=*/2024);
  std::cout << "Recorded " << master.size() << " input events over "
            << master.Duration().ToString() << "\n";

  // 2. Save to CSV and load it back — byte-exact round trip.
  std::stringstream csv;
  master.WriteCsv(csv);
  const InputTrace loaded = InputTrace::ReadCsv(csv);
  std::cout << "CSV round trip: " << loaded.size() << " events ("
            << (loaded.events() == master.events() ? "identical" : "DIFFERENT") << ")\n";

  PrintHeading(std::cout, "First events of the trace");
  TextTable head({"time", "kind", "magnitude"});
  for (std::size_t i = 0; i < std::min<std::size_t>(6, loaded.size()); ++i) {
    const InputEvent& event = loaded.events()[i];
    head.AddRow({event.at.ToString(), event.kind, TextTable::Fixed(event.magnitude, 2)});
  }
  head.Print(std::cout);

  // 3. Replay five times with millisecond-accuracy jitter; measure energy
  //    with the DAQ through the GPIO trigger, exactly like the paper.
  PrintHeading(std::cout, "Five replays with sub-millisecond replay jitter");
  TextTable runs({"run", "energy (J)", "interactive misses"});
  Rng jitter_rng(99);
  std::vector<double> energies;
  for (int run = 0; run < 5; ++run) {
    Simulator sim;
    Itsy itsy(sim);
    KernelConfig kernel_config;
    kernel_config.rng_seed = 500 + static_cast<std::uint64_t>(run);
    Kernel kernel(sim, itsy, kernel_config);
    DeadlineMonitor deadlines;
    const InputTrace replay = loaded.WithReplayJitter(jitter_rng);
    kernel.AddTask(std::make_unique<WebWorkload>(replay, WebConfig{}, &deadlines));
    kernel.AddTask(std::make_unique<JavaPollWorkload>());
    kernel.Start();
    const SimTime end = loaded.Duration() + SimTime::Seconds(5);
    sim.RunUntil(end);

    DaqConfig daq_config;
    daq_config.seed = 7000 + static_cast<std::uint64_t>(run);
    Daq daq(daq_config);
    const double joules = daq.EnergyJoules(daq.SampleWindow(itsy.tape(), SimTime::Zero(), end));
    energies.push_back(joules);
    runs.AddRow({std::to_string(run + 1), TextTable::Fixed(joules, 2),
                 std::to_string(deadlines.Stats("interactive").missed)});
  }
  runs.Print(std::cout);

  const Summary summary = Summarize(energies);
  std::cout << "\nEnergy 95% CI: " << TextTable::Fixed(summary.ci_low(), 2) << " - "
            << TextTable::Fixed(summary.ci_high(), 2) << " J ("
            << TextTable::Fixed(summary.ci_percent(), 2) << "% of the mean; paper: <0.7%)\n"
            << "\"the runs were very repeatable, despite the possible variation that\n"
            "would arise from interactions between application threads, other\n"
            "processes and system daemons.\"\n";

  // 4. A server request set takes the same path: saved as "service_us"
  //    events, reloaded, and replayed against the generated run.
  PrintHeading(std::cout, "Server request set: CSV round trip and replay");
  ServerConfig server;
  server.arrivals = ArrivalProcess::kBursty;
  server.rate_rps = 160.0;
  server.duration = SimTime::Seconds(10);
  constexpr std::uint64_t kRequestSeed = 31;
  const ServerRequests requests = MakeServerRequests(server, kRequestSeed);
  InputTrace request_trace;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    request_trace.Record(requests.at[i], "service_us", requests.service_us[i]);
  }
  std::stringstream request_csv;
  request_trace.WriteCsv(request_csv);
  const InputTrace request_loaded = InputTrace::ReadCsv(request_csv);
  std::cout << "CSV round trip: " << request_loaded.size() << " requests ("
            << (ServerRequestsFromTrace(request_loaded, server) == requests ? "identical"
                                                                             : "DIFFERENT")
            << ")\n";

  struct ServerRun {
    DeadlineMonitor::StreamStats stats;
    double joules;
  };
  const auto run_server = [](AppBundle bundle, DeadlineMonitor* deadlines) {
    Simulator sim;
    Itsy itsy(sim);
    Kernel kernel(sim, itsy);
    for (auto& task : bundle.tasks) {
      kernel.AddTask(std::move(task));
    }
    kernel.Start();
    sim.RunUntil(bundle.duration);
    return ServerRun{deadlines->Stats("requests"),
                     itsy.tape().EnergyJoules(SimTime::Zero(), bundle.duration)};
  };
  DeadlineMonitor generated_deadlines;
  const ServerRun generated =
      run_server(MakeServerApp(server, &generated_deadlines, kRequestSeed), &generated_deadlines);
  DeadlineMonitor replayed_deadlines;
  const ServerRun replayed = run_server(
      MakeServerAppFromTrace(request_loaded, server, &replayed_deadlines), &replayed_deadlines);
  TextTable server_runs({"run", "requests", "missed", "p99 latency (ms)", "energy (J)"});
  for (const auto& [name, run] : {std::pair<const char*, const ServerRun&>{"generated", generated},
                                  {"replayed", replayed}}) {
    server_runs.AddRow({name, std::to_string(run.stats.total), std::to_string(run.stats.missed),
                        TextTable::Fixed(run.stats.latency_us.ApproxQuantile(0.99) / 1e3, 2),
                        TextTable::Fixed(run.joules, 2)});
  }
  server_runs.Print(std::cout);
  const bool identical = generated.stats.total == replayed.stats.total &&
                         generated.stats.missed == replayed.stats.missed &&
                         generated.stats.latency_us.sum() == replayed.stats.latency_us.sum() &&
                         generated.joules == replayed.joules;
  std::cout << "Replay results: " << (identical ? "identical" : "DIFFERENT") << "\n";
  return identical ? 0 : 1;
}
