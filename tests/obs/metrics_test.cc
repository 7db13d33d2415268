#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace dcs {
namespace {

TEST(MetricsCounterTest, StartsAtZeroAndAccumulates) {
  MetricsCounter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsGaugeTest, SetOverwrites) {
  MetricsGauge g;
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(g.samples(), 0u);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
  EXPECT_EQ(g.samples(), 1u);
}

TEST(MetricsGaugeTest, MergeAverages) {
  MetricsGauge a;
  MetricsGauge b;
  a.Set(10.0);
  b.Set(20.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.samples(), 2u);
  EXPECT_DOUBLE_EQ(a.value(), 15.0);
  // Merging an unset gauge leaves the mean unchanged.
  MetricsGauge empty;
  a.MergeFrom(empty);
  EXPECT_DOUBLE_EQ(a.value(), 15.0);
}

// BucketOf reads the exponent bits; these are the buckets std::frexp gave
// it before, at every edge of the encoding.
TEST(LogHistogramTest, BucketOfMatchesFrexpAtEveryEdge) {
  const auto frexp_bucket = [](double v) {
    if (!(v >= 1.0)) {
      return 0;
    }
    int exp = 0;
    std::frexp(v, &exp);
    return std::min(exp, LogHistogram::kBuckets - 1);
  };
  using Limits = std::numeric_limits<double>;
  const double inf = Limits::infinity();
  std::vector<std::pair<double, int>> pinned = {
      {0.0, 0},
      {-0.0, 0},
      {Limits::denorm_min(), 0},
      {Limits::min() / 2, 0},
      {Limits::min(), 0},
      {std::nextafter(1.0, 0.0), 0},
      {1.0, 1},
      {std::ldexp(1.0, 62), 63},
      {std::nextafter(std::ldexp(1.0, 62), 0.0), 62},
      {std::ldexp(1.0, 63), 63},
      {std::ldexp(1.0, 64), 63},
      {Limits::max(), 63},
      {inf, 0},
      {-inf, 0},
      {Limits::quiet_NaN(), 0},
      {-Limits::quiet_NaN(), 0},
      {-1.0, 0},
      {-std::ldexp(1.0, 40), 0},
      {-Limits::max(), 0},
  };
  for (int k = 1; k < 70; ++k) {
    const double p = std::ldexp(1.0, k);
    pinned.emplace_back(std::nextafter(p, 0.0), std::min(k, 63));
    pinned.emplace_back(p, std::min(k + 1, 63));
    pinned.emplace_back(std::nextafter(p, inf), std::min(k + 1, 63));
  }
  for (const auto& [v, bucket] : pinned) {
    EXPECT_EQ(LogHistogram::BucketOf(v), bucket) << v;
    EXPECT_EQ(LogHistogram::BucketOf(v), frexp_bucket(v)) << v;
  }
}

TEST(LogHistogramTest, BucketBoundaries) {
  // Bucket 0 is (-inf, 1); bucket i >= 1 is [2^(i-1), 2^i).
  EXPECT_EQ(LogHistogram::BucketOf(-5.0), 0);
  EXPECT_EQ(LogHistogram::BucketOf(0.0), 0);
  EXPECT_EQ(LogHistogram::BucketOf(0.999), 0);
  EXPECT_EQ(LogHistogram::BucketOf(1.0), 1);
  EXPECT_EQ(LogHistogram::BucketOf(1.999), 1);
  EXPECT_EQ(LogHistogram::BucketOf(2.0), 2);
  EXPECT_EQ(LogHistogram::BucketOf(3.0), 2);
  EXPECT_EQ(LogHistogram::BucketOf(4.0), 3);
  EXPECT_EQ(LogHistogram::BucketOf(1024.0), 11);
  EXPECT_EQ(LogHistogram::BucketOf(std::numeric_limits<double>::max()),
            LogHistogram::kBuckets - 1);
  EXPECT_EQ(LogHistogram::BucketOf(std::numeric_limits<double>::quiet_NaN()), 0);
  // Upper bound is the exclusive end of the bucket.
  EXPECT_EQ(LogHistogram::BucketUpperBound(1), 2.0);
  EXPECT_EQ(LogHistogram::BucketUpperBound(11), 2048.0);
  for (double v : {0.5, 1.0, 3.7, 100.0, 1e6}) {
    const int b = LogHistogram::BucketOf(v);
    EXPECT_LT(v, LogHistogram::BucketUpperBound(b)) << v;
    if (b > 0) {
      EXPECT_GE(v, LogHistogram::BucketUpperBound(b - 1)) << v;
    }
  }
}

TEST(LogHistogramTest, SummaryStatistics) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.ApproxQuantile(0.5), 0.0);
  h.Observe(10.0);
  h.Observe(2.0);
  h.Observe(30.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 42.0);
  EXPECT_DOUBLE_EQ(h.mean(), 14.0);
  EXPECT_EQ(h.min(), 2.0);
  EXPECT_EQ(h.max(), 30.0);
}

TEST(LogHistogramTest, ApproxQuantileReturnsBucketUpperBound) {
  LogHistogram h;
  for (int i = 0; i < 90; ++i) {
    h.Observe(3.0);  // bucket [2, 4)
  }
  for (int i = 0; i < 10; ++i) {
    h.Observe(1000.0);  // bucket [512, 1024)
  }
  EXPECT_EQ(h.ApproxQuantile(0.5), 4.0);
  EXPECT_EQ(h.ApproxQuantile(0.89), 4.0);
  EXPECT_EQ(h.ApproxQuantile(0.99), 1024.0);
}

TEST(LogHistogramTest, ApproxQuantileGuardsNanAndEmpty) {
  LogHistogram h;
  // Empty histogram: every quantile is 0, including a NaN q from a caller
  // dividing by a zero count.
  EXPECT_EQ(h.ApproxQuantile(0.99), 0.0);
  EXPECT_EQ(h.ApproxQuantile(std::nan("")), 0.0);
  h.Observe(8.0);
  // NaN q on a populated histogram degrades to p0, not UB.
  EXPECT_EQ(h.ApproxQuantile(std::nan("")), h.ApproxQuantile(0.0));
  EXPECT_EQ(h.ApproxQuantile(2.0), h.ApproxQuantile(1.0));  // clamped
}

TEST(LogHistogramTest, MergeAddsCountsAndExtremes) {
  LogHistogram a;
  LogHistogram b;
  a.Observe(2.0);
  b.Observe(100.0);
  b.Observe(0.5);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 102.5);
  EXPECT_EQ(a.min(), 0.5);
  EXPECT_EQ(a.max(), 100.0);
  // Merging an empty histogram must not disturb min/max.
  LogHistogram empty;
  a.MergeFrom(empty);
  EXPECT_EQ(a.min(), 0.5);
  EXPECT_EQ(a.max(), 100.0);
}

TEST(MetricsRegistryTest, LookupCreatesAndFindDoesNot) {
  MetricsRegistry r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.FindCounter("a"), nullptr);
  r.Counter("a").Inc(3);
  r.Gauge("g").Set(1.5);
  r.Histogram("h").Observe(7.0);
  EXPECT_FALSE(r.empty());
  ASSERT_NE(r.FindCounter("a"), nullptr);
  EXPECT_EQ(r.FindCounter("a")->value(), 3u);
  ASSERT_NE(r.FindGauge("g"), nullptr);
  ASSERT_NE(r.FindHistogram("h"), nullptr);
  EXPECT_EQ(r.FindCounter("missing"), nullptr);
  EXPECT_EQ(r.FindGauge("missing"), nullptr);
  EXPECT_EQ(r.FindHistogram("missing"), nullptr);
}

TEST(MetricsRegistryTest, MergeSemantics) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.Counter("c").Inc(1);
  b.Counter("c").Inc(2);
  b.Counter("only_b").Inc(5);
  a.Gauge("g").Set(2.0);
  b.Gauge("g").Set(4.0);
  a.Histogram("h").Observe(1.0);
  b.Histogram("h").Observe(3.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.FindCounter("c")->value(), 3u);       // counters add
  EXPECT_EQ(a.FindCounter("only_b")->value(), 5u);  // missing names appear
  EXPECT_DOUBLE_EQ(a.FindGauge("g")->value(), 3.0);  // gauges average
  EXPECT_EQ(a.FindHistogram("h")->count(), 2u);      // histograms add
}

TEST(MetricsRegistryTest, WriteJsonIsValidAndDeterministic) {
  MetricsRegistry r;
  r.Counter("kernel.quanta").Inc(100);
  r.Gauge("exp.energy_joules").Set(85.25);
  r.Histogram("kernel.quantum_busy_us").Observe(5000.0);
  std::ostringstream a;
  std::ostringstream b;
  r.WriteJson(a);
  r.WriteJson(b);
  EXPECT_EQ(a.str(), b.str());
  const std::string json = a.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"kernel.quanta\":100"), std::string::npos);
  EXPECT_NE(json.find("\"exp.energy_joules\":85.25"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(JsonNumberTest, RoundTripsAndSanitises) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(0.25), "0.25");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  EXPECT_EQ(JsonNumber(206.4), "206.4");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "0");
  // Shortest round-trip: parsing the text must recover the double exactly.
  for (double v : {1.0 / 3.0, 85.59, 1e-9, 123456.789}) {
    EXPECT_EQ(std::stod(JsonNumber(v)), v);
  }
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

}  // namespace
}  // namespace dcs
