#include "src/workload/server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/workload/apps.h"
#include "tests/workload/harness.h"

namespace dcs {
namespace {

ServerConfig QuickConfig() {
  ServerConfig config;
  config.rate_rps = 50.0;
  config.duration = SimTime::Seconds(5);
  config.slo = SimTime::Millis(100);
  return config;
}

TEST(ServerTraceTest, TraceIsSeededDeterministic) {
  const ServerConfig config = QuickConfig();
  const InputTrace a = MakeServerRequestTrace(config, 7);
  const InputTrace b = MakeServerRequestTrace(config, 7);
  const InputTrace c = MakeServerRequestTrace(config, 8);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.events(), b.events());
  EXPECT_NE(a.events(), c.events());
}

// Differential test against queueing theory: Poisson arrivals at rate λ have
// exponential inter-arrival gaps with mean 1/λ.  With n ≈ λT samples the
// sample mean's standard error is (1/λ)/√n, so a 5% tolerance is > 5σ.
TEST(ServerTraceTest, PoissonInterArrivalsMatchAnalyticMean) {
  ServerConfig config;
  config.rate_rps = 200.0;
  config.duration = SimTime::Seconds(60);
  const InputTrace trace = MakeServerRequestTrace(config, 11);
  ASSERT_GT(trace.size(), 10000u);
  double sum_gap_s = 0.0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    sum_gap_s += (trace.events()[i].at - trace.events()[i - 1].at).ToSeconds();
  }
  const double mean_gap = sum_gap_s / static_cast<double>(trace.size() - 1);
  const double analytic = 1.0 / config.rate_rps;
  EXPECT_NEAR(mean_gap, analytic, 0.05 * analytic);
}

TEST(ServerTraceTest, AllProcessesHoldTheConfiguredMeanRate) {
  for (const auto process : {ArrivalProcess::kPoisson, ArrivalProcess::kBursty,
                             ArrivalProcess::kSelfSimilar}) {
    ServerConfig config;
    config.arrivals = process;
    config.rate_rps = 100.0;
    config.duration = SimTime::Seconds(120);
    const InputTrace trace = MakeServerRequestTrace(config, 13);
    const double realized =
        static_cast<double>(trace.size()) / config.duration.ToSeconds();
    // Bursty/self-similar traffic has far higher count variance than
    // Poisson; 20% is loose enough for the heavy-tailed construction while
    // still catching a mis-solved per-state rate (those come out 2x off).
    EXPECT_NEAR(realized, config.rate_rps, 0.20 * config.rate_rps)
        << ArrivalProcessName(process);
  }
}

TEST(ServerTraceTest, BurstyTraceIsBurstier) {
  // Coefficient of variation of inter-arrival gaps: 1 for Poisson,
  // noticeably above 1 for the MMPP.
  auto gap_cv = [](const InputTrace& trace) {
    double sum = 0.0;
    double sum_sq = 0.0;
    const auto n = static_cast<double>(trace.size() - 1);
    for (std::size_t i = 1; i < trace.size(); ++i) {
      const double gap = (trace.events()[i].at - trace.events()[i - 1].at).ToSeconds();
      sum += gap;
      sum_sq += gap * gap;
    }
    const double mean = sum / n;
    return std::sqrt(sum_sq / n - mean * mean) / mean;
  };
  ServerConfig config;
  config.rate_rps = 100.0;
  config.duration = SimTime::Seconds(120);
  const double poisson_cv = gap_cv(MakeServerRequestTrace(config, 17));
  config.arrivals = ArrivalProcess::kBursty;
  const double bursty_cv = gap_cv(MakeServerRequestTrace(config, 17));
  EXPECT_NEAR(poisson_cv, 1.0, 0.1);
  EXPECT_GT(bursty_cv, poisson_cv + 0.2);
}

TEST(ServerTraceTest, RequestTraceSurvivesCsvRoundTrip) {
  const InputTrace trace = MakeServerRequestTrace(QuickConfig(), 7);
  std::stringstream ss;
  trace.WriteCsv(ss);
  const InputTrace loaded = InputTrace::ReadCsv(ss);
  ASSERT_EQ(loaded.size(), trace.size());
  EXPECT_EQ(loaded.events(), trace.events());
}

TEST(ServerWorkloadTest, ServesEveryRequestWithinSloAtFullSpeed) {
  const ServerConfig config = QuickConfig();
  const InputTrace trace = MakeServerRequestTrace(config, 7);
  WorkloadHarness h(ClockTable::MaxStep(), 7);
  h.Add(std::make_unique<ServerWorkload>(trace, config, &h.deadlines));
  h.Run(config.duration + SimTime::Seconds(2));
  const auto stats = h.deadlines.Stats("requests");
  EXPECT_EQ(stats.total, static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(stats.missed, 0);
  // Every completion lands in the latency histogram.
  EXPECT_EQ(stats.latency_us.count(), trace.size());
  EXPECT_GT(stats.latency_us.mean(), 0.0);
}

TEST(ServerWorkloadTest, ReplayedCsvTraceProducesIdenticalOutcome) {
  // The trace-ingestion path: write the generated trace to CSV, read it
  // back, and replay — stats must match the direct run exactly.
  const ServerConfig config = QuickConfig();
  const InputTrace trace = MakeServerRequestTrace(config, 7);
  std::stringstream ss;
  trace.WriteCsv(ss);
  const InputTrace replay = InputTrace::ReadCsv(ss);

  WorkloadHarness direct(5, 7);
  direct.Add(std::make_unique<ServerWorkload>(trace, config, &direct.deadlines));
  direct.Run(config.duration + SimTime::Seconds(2));
  WorkloadHarness replayed(5, 7);
  replayed.Add(std::make_unique<ServerWorkload>(replay, config, &replayed.deadlines));
  replayed.Run(config.duration + SimTime::Seconds(2));

  const auto a = direct.deadlines.Stats("requests");
  const auto b = replayed.deadlines.Stats("requests");
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.missed, b.missed);
  EXPECT_EQ(a.worst_lateness, b.worst_lateness);
  EXPECT_EQ(a.latency_us.sum(), b.latency_us.sum());
}

TEST(ServerWorkloadTest, ArrivalKindScalesConfiguredMeanDemand) {
  // "arrival" events carry a demand multiplier instead of explicit µs.
  ServerConfig config = QuickConfig();
  config.service_ms_at_top = 4.0;
  InputTrace trace;
  trace.Record(SimTime::Millis(100), "arrival", 2.0);  // 8 ms at top
  WorkloadHarness h(ClockTable::MaxStep(), 7);
  h.Add(std::make_unique<ServerWorkload>(trace, config, &h.deadlines));
  h.Run(SimTime::Seconds(1));
  const auto stats = h.deadlines.Stats("requests");
  ASSERT_EQ(stats.total, 1);
  // Latency is at least the 8 ms service time (memory stretch adds more).
  EXPECT_GE(stats.latency_us.min(), 8000.0);
}

TEST(ServerWorkloadTest, RejectsForeignEventKinds) {
  InputTrace trace;
  trace.Record(SimTime::Millis(1), "scroll", 1.0);
  EXPECT_THROW(ServerWorkload(trace, ServerConfig{}, nullptr), std::invalid_argument);
}

TEST(ServerAppTest, BundleDrainsQueueAfterArrivalWindow) {
  DeadlineMonitor deadlines;
  const AppBundle bundle = MakeServerApp(QuickConfig(), &deadlines, 7);
  EXPECT_EQ(bundle.name, "server");
  EXPECT_EQ(bundle.tasks.size(), 1u);
  EXPECT_GT(bundle.duration, QuickConfig().duration);
}

// --- ServerConfig validation (strict, InputTrace-v2 style) ------------------

TEST(ServerConfigValidationTest, RejectsNonPositiveCoreParameters) {
  ServerConfig config = QuickConfig();
  config.rate_rps = 0.0;
  EXPECT_THROW(ValidateServerConfig(config), std::invalid_argument);
  config = QuickConfig();
  config.duration = SimTime::Zero();
  EXPECT_THROW(ValidateServerConfig(config), std::invalid_argument);
  config = QuickConfig();
  config.slo = SimTime::Zero();
  EXPECT_THROW(ValidateServerConfig(config), std::invalid_argument);
  config = QuickConfig();
  config.service_ms_at_top = -1.0;
  EXPECT_THROW(ValidateServerConfig(config), std::invalid_argument);
}

TEST(ServerConfigValidationTest, RejectsBadStreams) {
  ServerConfig config = QuickConfig();
  config.streams = {{"gold", 1.0, 1.0}, {"gold", 2.0, 1.0}};  // duplicate name
  EXPECT_THROW(ValidateServerConfig(config), std::invalid_argument);
  config.streams = {{"", 1.0, 1.0}};  // empty name
  EXPECT_THROW(ValidateServerConfig(config), std::invalid_argument);
  config.streams = {{"gold", 1.0, 0.0}};  // non-positive weight
  EXPECT_THROW(ValidateServerConfig(config), std::invalid_argument);
  config.streams = {{"gold", 1.0, 1.0}, {"bronze", 0.5, 2.0}};
  EXPECT_NO_THROW(ValidateServerConfig(config));
}

TEST(ServerConfigValidationTest, RejectsBadAdmissionParameters) {
  ServerConfig config = QuickConfig();
  config.admission.utilization_bound = 0.0;
  EXPECT_THROW(ValidateServerConfig(config), std::invalid_argument);
  config = QuickConfig();
  config.admission.decrease_factor = 1.0;  // must strictly decrease
  EXPECT_THROW(ValidateServerConfig(config), std::invalid_argument);
  config = QuickConfig();
  config.admission.min_bound = 0.5;
  config.admission.max_bound = 0.25;  // inverted range
  EXPECT_THROW(ValidateServerConfig(config), std::invalid_argument);
  config = QuickConfig();
  config.admission.feedback_window = 0;
  EXPECT_THROW(ValidateServerConfig(config), std::invalid_argument);
  config = QuickConfig();
  config.admission.demand_ewma_weight = 1.5;  // weight in (0, 1]
  EXPECT_THROW(ValidateServerConfig(config), std::invalid_argument);
}

TEST(ServerConfigValidationTest, ConstructorsValidate) {
  ServerConfig config = QuickConfig();
  config.rate_rps = -3.0;
  EXPECT_THROW(MakeServerRequestTrace(config, 7), std::invalid_argument);
  InputTrace trace;
  trace.Record(SimTime::Millis(1), "arrival", 1.0);
  EXPECT_THROW(ServerWorkload(trace, config, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace dcs
