#include "src/sim/trace_sink.h"

#include <gtest/gtest.h>

#include <sstream>

namespace dcs {
namespace {

TEST(TraceSeriesTest, AppendAndRead) {
  TraceSeries s("test");
  s.Append(SimTime::Millis(1), 0.5);
  s.Append(SimTime::Millis(2), 0.7);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.points()[0].value, 0.5);
  EXPECT_EQ(s.points()[1].at, SimTime::Millis(2));
}

// Trim releases a reservation less than half used and keeps a fuller one
// where it is.
TEST(TraceSeriesTest, TrimReleasesOnlyAMostlyUnusedReservation) {
  TraceSeries sparse("sparse");
  sparse.Reserve(1000);
  for (int i = 0; i < 3; ++i) {
    sparse.Append(SimTime::Millis(i), 0.5);
  }
  sparse.Trim();
  EXPECT_EQ(sparse.points().capacity(), 3u);
  EXPECT_EQ(sparse.size(), 3u);
  EXPECT_EQ(sparse.points()[2].at, SimTime::Millis(2));

  TraceSeries full("full");
  full.Reserve(1001);
  for (int i = 0; i < 1000; ++i) {
    full.Append(SimTime::Millis(i), 0.5);
  }
  const TracePoint* data = full.points().data();
  full.Trim();
  EXPECT_EQ(full.points().data(), data) << "a full series was copied";
  EXPECT_EQ(full.points().capacity(), 1001u);

  TraceSink sink;
  sink.Series("a").Reserve(64);
  sink.Series("a").Append(SimTime::Millis(1), 1.0);
  sink.Trim();
  EXPECT_EQ(sink.Find("a")->points().capacity(), 1u);
}

TEST(TraceSinkTest, SeriesCreatedOnFirstUse) {
  TraceSink sink;
  EXPECT_EQ(sink.Find("util"), nullptr);
  sink.Series("util").Append(SimTime::Millis(1), 0.5);
  ASSERT_NE(sink.Find("util"), nullptr);
  EXPECT_EQ(sink.Find("util")->size(), 1u);
}

TEST(TraceSinkTest, NamesSorted) {
  TraceSink sink;
  sink.Series("zeta");
  sink.Series("alpha");
  const auto names = sink.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

TEST(TraceSinkTest, WriteCsv) {
  TraceSink sink;
  sink.Series("p").Append(SimTime::Micros(100), 1.5);
  sink.Series("p").Append(SimTime::Micros(300), 2.5);
  std::ostringstream os;
  sink.WriteCsv("p", os);
  EXPECT_EQ(os.str(), "time_us,value\n100,1.5\n300,2.5\n");
}

TEST(TraceSinkTest, WriteCsvUnknownSeriesHeaderOnly) {
  TraceSink sink;
  std::ostringstream os;
  sink.WriteCsv("missing", os);
  EXPECT_EQ(os.str(), "time_us,value\n");
}

}  // namespace
}  // namespace dcs
