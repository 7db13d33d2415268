#include "src/workload/server.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/workload/apps.h"
#include "tests/workload/harness.h"

namespace dcs {
namespace {

// The requests as a "service_us" trace, the CSV form a replay reads back.
InputTrace ServiceUsTrace(const ServerRequests& requests) {
  InputTrace trace;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    trace.Record(requests.at[i], "service_us", requests.service_us[i]);
  }
  return trace;
}

ServerConfig QuickConfig() {
  ServerConfig config;
  config.rate_rps = 50.0;
  config.duration = SimTime::Seconds(5);
  config.slo = SimTime::Millis(100);
  return config;
}

TEST(ServerTraceTest, TraceIsSeededDeterministic) {
  const ServerConfig config = QuickConfig();
  const ServerRequests a = MakeServerRequests(config, 7);
  const ServerRequests b = MakeServerRequests(config, 7);
  const ServerRequests c = MakeServerRequests(config, 8);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// Differential test against queueing theory: Poisson arrivals at rate λ have
// exponential inter-arrival gaps with mean 1/λ.  With n ≈ λT samples the
// sample mean's standard error is (1/λ)/√n, so a 5% tolerance is > 5σ.
TEST(ServerTraceTest, PoissonInterArrivalsMatchAnalyticMean) {
  ServerConfig config;
  config.rate_rps = 200.0;
  config.duration = SimTime::Seconds(60);
  const ServerRequests requests = MakeServerRequests(config, 11);
  ASSERT_GT(requests.size(), 10000u);
  double sum_gap_s = 0.0;
  for (std::size_t i = 1; i < requests.size(); ++i) {
    sum_gap_s += (requests.at[i] - requests.at[i - 1]).ToSeconds();
  }
  const double mean_gap = sum_gap_s / static_cast<double>(requests.size() - 1);
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
    const ServerRequests requests = MakeServerRequests(config, 13);
    const double realized =
        static_cast<double>(requests.size()) / config.duration.ToSeconds();
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
  auto gap_cv = [](const ServerRequests& requests) {
    double sum = 0.0;
    double sum_sq = 0.0;
    const auto n = static_cast<double>(requests.size() - 1);
    for (std::size_t i = 1; i < requests.size(); ++i) {
      const double gap = (requests.at[i] - requests.at[i - 1]).ToSeconds();
      sum += gap;
      sum_sq += gap * gap;
    }
    const double mean = sum / n;
    return std::sqrt(sum_sq / n - mean * mean) / mean;
  };
  ServerConfig config;
  config.rate_rps = 100.0;
  config.duration = SimTime::Seconds(120);
  const double poisson_cv = gap_cv(MakeServerRequests(config, 17));
  config.arrivals = ArrivalProcess::kBursty;
  const double bursty_cv = gap_cv(MakeServerRequests(config, 17));
  EXPECT_NEAR(poisson_cv, 1.0, 0.1);
  EXPECT_GT(bursty_cv, poisson_cv + 0.2);
}

// FNV-1a 64 over every (arrival nanoseconds, demand bits) pair, per grammar
// and rate over seeds 1-3 of the default 40 s window, recorded from the
// InputTrace-based generator that MakeServerRequests replaced.  Any change
// to a draw, its order or its rounding moves it.
TEST(ServerTraceTest, ValuesMatchThePinnedHash) {
  struct Case {
    ArrivalProcess process;
    double rate_rps;
    const char* fnv;
  };
  const Case cases[] = {
      {ArrivalProcess::kPoisson, 80.0, "229938f08f2163c1"},
      {ArrivalProcess::kPoisson, 320.0, "9a56e85266d644b3"},
      {ArrivalProcess::kBursty, 80.0, "3a6174c4c7a5edcd"},
      {ArrivalProcess::kBursty, 320.0, "a80de79b68ca8933"},
      {ArrivalProcess::kSelfSimilar, 80.0, "76b591329a3d8b0a"},
      {ArrivalProcess::kSelfSimilar, 320.0, "3341c1322cb61a89"},
  };
  for (const Case& c : cases) {
    ServerConfig config;
    config.arrivals = c.process;
    config.rate_rps = c.rate_rps;
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t word) {
      for (int i = 0; i < 8; ++i) {
        h = (h ^ ((word >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
      }
    };
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const ServerRequests requests = MakeServerRequests(config, seed);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        mix(static_cast<std::uint64_t>(requests.at[i].nanos()));
        mix(std::bit_cast<std::uint64_t>(requests.service_us[i]));
      }
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
    EXPECT_STREQ(hex, c.fnv) << ArrivalProcessName(c.process) << " " << c.rate_rps;
  }
}

TEST(ServerTraceTest, RequestTraceSurvivesCsvRoundTrip) {
  const ServerRequests requests = MakeServerRequests(QuickConfig(), 7);
  std::stringstream ss;
  ServiceUsTrace(requests).WriteCsv(ss);
  const ServerRequests loaded = ServerRequestsFromTrace(InputTrace::ReadCsv(ss), QuickConfig());
  ASSERT_EQ(loaded.size(), requests.size());
  EXPECT_EQ(loaded, requests);
}

TEST(ServerWorkloadTest, ServesEveryRequestWithinSloAtFullSpeed) {
  const ServerConfig config = QuickConfig();
  const ServerRequests requests = MakeServerRequests(config, 7);
  WorkloadHarness h(ClockTable::MaxStep(), 7);
  h.Add(std::make_unique<ServerWorkload>(requests, config, &h.deadlines));
  h.Run(config.duration + SimTime::Seconds(2));
  const auto stats = h.deadlines.Stats("requests");
  EXPECT_EQ(stats.total, static_cast<std::int64_t>(requests.size()));
  EXPECT_EQ(stats.missed, 0);
  // Every completion lands in the latency histogram.
  EXPECT_EQ(stats.latency_us.count(), requests.size());
  EXPECT_GT(stats.latency_us.mean(), 0.0);
}

TEST(ServerWorkloadTest, ReplayedCsvTraceProducesIdenticalOutcome) {
  // The trace-ingestion path: write the generated trace to CSV, read it
  // back, and replay — stats must match the direct run exactly.
  const ServerConfig config = QuickConfig();
  const ServerRequests requests = MakeServerRequests(config, 7);
  std::stringstream ss;
  ServiceUsTrace(requests).WriteCsv(ss);
  const ServerRequests replay = ServerRequestsFromTrace(InputTrace::ReadCsv(ss), config);

  WorkloadHarness direct(5, 7);
  direct.Add(std::make_unique<ServerWorkload>(requests, config, &direct.deadlines));
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
  h.Add(std::make_unique<ServerWorkload>(ServerRequestsFromTrace(trace, config), config,
                                         &h.deadlines));
  h.Run(SimTime::Seconds(1));
  const auto stats = h.deadlines.Stats("requests");
  ASSERT_EQ(stats.total, 1);
  // Latency is at least the 8 ms service time (memory stretch adds more).
  EXPECT_GE(stats.latency_us.min(), 8000.0);
}

TEST(ServerWorkloadTest, RejectsForeignEventKinds) {
  InputTrace trace;
  trace.Record(SimTime::Millis(1), "scroll", 1.0);
  EXPECT_THROW(ServerRequestsFromTrace(trace, ServerConfig{}), std::invalid_argument);
}

TEST(ServerWorkloadTest, ArrivalEventsScaleByTheConfiguredMeanExactly) {
  ServerConfig config = QuickConfig();
  config.service_ms_at_top = 0.3;
  InputTrace trace;
  trace.Record(SimTime::Millis(1), "arrival", 0.7);
  trace.Record(SimTime::Millis(2), "service_us", 123.25);
  const ServerRequests requests = ServerRequestsFromTrace(trace, config);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests.at, (std::vector<SimTime>{SimTime::Millis(1), SimTime::Millis(2)}));
  EXPECT_EQ(requests.service_us[0], 0.7 * config.service_ms_at_top * 1e3);
  EXPECT_EQ(requests.service_us[1], 123.25);
}

TEST(ServerWorkloadTest, RejectsArraysOfUnequalLength) {
  ServerRequests requests;
  requests.at = {SimTime::Millis(1), SimTime::Millis(2)};
  requests.service_us = {100.0};
  EXPECT_THROW(ServerWorkload(requests, ServerConfig{}, nullptr), std::invalid_argument);
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
  EXPECT_THROW(MakeServerRequests(config, 7), std::invalid_argument);
  InputTrace trace;
  trace.Record(SimTime::Millis(1), "arrival", 1.0);
  EXPECT_THROW(ServerWorkload(ServerRequestsFromTrace(trace, config), config, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace dcs
