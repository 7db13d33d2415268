// Property test: all three server arrival grammars hold the configured
// long-run mean rate.  The per-seed realized rate is noisy (deliberately so
// for the bursty and self-similar constructions), but the mean across many
// seeds must converge on rate_rps — a mis-solved per-state rate (the classic
// bug: forgetting the dwell-fraction weighting) shows up as a 2x bias that
// no amount of averaging hides.  The MMPP calm-rate solve is also checked
// analytically via MmppCalmRateRps.

#include "src/workload/server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>


namespace dcs {
namespace {

constexpr int kSeeds = 32;

// Realized arrival rate over the configured window for one seed.
double RealizedRate(const ServerConfig& config, std::uint64_t seed) {
  const ServerRequests requests = MakeServerRequests(config, seed);
  return static_cast<double>(requests.size()) / config.duration.ToSeconds();
}

struct GrammarTolerance {
  ArrivalProcess process;
  // Per-seed deviation bound (loose: single windows of bursty traffic are
  // allowed to run hot or cold) and cross-seed mean bound (tight: the
  // standard error shrinks by sqrt(kSeeds), so a biased per-state rate is
  // many sigma out).
  double per_seed;
  double mean;
};

class ArrivalRatePropertyTest : public ::testing::TestWithParam<GrammarTolerance> {};

TEST_P(ArrivalRatePropertyTest, MeanRateHoldsAcrossSeeds) {
  const GrammarTolerance tol = GetParam();
  ServerConfig config;
  config.arrivals = tol.process;
  config.rate_rps = 100.0;
  config.duration = SimTime::Seconds(60);

  double sum = 0.0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const double rate = RealizedRate(config, static_cast<std::uint64_t>(seed));
    EXPECT_NEAR(rate, config.rate_rps, tol.per_seed * config.rate_rps)
        << ArrivalProcessName(tol.process) << " seed " << seed;
    sum += rate;
  }
  const double mean = sum / kSeeds;
  EXPECT_NEAR(mean, config.rate_rps, tol.mean * config.rate_rps)
      << ArrivalProcessName(tol.process);
}

std::string GrammarName(const ::testing::TestParamInfo<GrammarTolerance>& info) {
  return ArrivalProcessName(info.param.process);
}

INSTANTIATE_TEST_SUITE_P(
    AllGrammars, ArrivalRatePropertyTest,
    ::testing::Values(GrammarTolerance{ArrivalProcess::kPoisson, 0.10, 0.02},
                      GrammarTolerance{ArrivalProcess::kBursty, 0.30, 0.05},
                      GrammarTolerance{ArrivalProcess::kSelfSimilar, 0.50, 0.10}),
    GrammarName);

TEST(ArrivalRatePropertyTest, RateHoldsAtOtherOfferedLoads) {
  // The solve must be linear in rate_rps, not tuned to the default.
  for (const double rate : {20.0, 250.0}) {
    ServerConfig config;
    config.arrivals = ArrivalProcess::kBursty;
    config.rate_rps = rate;
    config.duration = SimTime::Seconds(60);
    double sum = 0.0;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      sum += RealizedRate(config, static_cast<std::uint64_t>(seed));
    }
    EXPECT_NEAR(sum / kSeeds, rate, 0.06 * rate) << "rate " << rate;
  }
}

// -- analytic checks on the MMPP calm-rate solve --

TEST(MmppCalmRateTest, SolveSatisfiesTheStationaryMeanEquation) {
  // f_calm * r_calm + f_burst * factor * r_calm == rate_rps, exactly.
  ServerConfig config;
  config.burst_rate_factor = 4.0;
  config.calm_dwell_mean = SimTime::Seconds(2);
  config.burst_dwell_mean = SimTime::Millis(500);
  const double r_calm = MmppCalmRateRps(config);
  const double calm = config.calm_dwell_mean.ToSeconds();
  const double burst = config.burst_dwell_mean.ToSeconds();
  const double f_calm = calm / (calm + burst);
  const double f_burst = 1.0 - f_calm;
  EXPECT_NEAR(f_calm * r_calm + f_burst * config.burst_rate_factor * r_calm,
              config.rate_rps, 1e-9 * config.rate_rps);
}

TEST(MmppCalmRateTest, DefaultConfigSolvesToClosedForm) {
  // Defaults: f_calm = 2 / 2.5 = 0.8, factor = 4, so
  // r_calm = 100 / (0.8 + 0.2 * 4) = 62.5.
  EXPECT_DOUBLE_EQ(MmppCalmRateRps(ServerConfig{}), 62.5);
}

TEST(MmppCalmRateTest, UnitFactorDegeneratesToPoissonRate) {
  ServerConfig config;
  config.burst_rate_factor = 1.0;
  EXPECT_DOUBLE_EQ(MmppCalmRateRps(config), config.rate_rps);
}

TEST(MmppCalmRateTest, CalmRateBracketsTheMean) {
  // With factor > 1 the calm state must run below the mean and the burst
  // state above it; more burst dwell pulls the calm rate further down.
  ServerConfig config;
  const double r_calm = MmppCalmRateRps(config);
  EXPECT_LT(r_calm, config.rate_rps);
  EXPECT_GT(r_calm * config.burst_rate_factor, config.rate_rps);

  ServerConfig burstier = config;
  burstier.burst_dwell_mean = SimTime::Seconds(2);
  EXPECT_LT(MmppCalmRateRps(burstier), r_calm);
}

}  // namespace
}  // namespace dcs
