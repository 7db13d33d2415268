#include "src/workload/input_trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace dcs {
namespace {

TEST(InputTraceTest, RecordAndRead) {
  InputTrace trace;
  trace.Record(SimTime::Seconds(1), "tap", 1.0);
  trace.Record(SimTime::Seconds(2), "scroll", 0.5);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.events()[0].kind, "tap");
  EXPECT_EQ(trace.events()[1].at, SimTime::Seconds(2));
  EXPECT_DOUBLE_EQ(trace.events()[1].magnitude, 0.5);
}

TEST(InputTraceTest, DurationIsLastEventTime) {
  InputTrace trace;
  EXPECT_EQ(trace.Duration(), SimTime::Zero());
  trace.Record(SimTime::Seconds(3), "tap");
  trace.Record(SimTime::Seconds(7), "tap");
  EXPECT_EQ(trace.Duration(), SimTime::Seconds(7));
}

TEST(InputTraceTest, CsvRoundTrip) {
  InputTrace trace;
  trace.Record(SimTime::Millis(1500), "load", 1.7);
  trace.Record(SimTime::Millis(2500), "scroll", 1.0);
  std::stringstream ss;
  trace.WriteCsv(ss);
  const InputTrace loaded = InputTrace::ReadCsv(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.events()[0].at, SimTime::Millis(1500));
  EXPECT_EQ(loaded.events()[0].kind, "load");
  EXPECT_DOUBLE_EQ(loaded.events()[0].magnitude, 1.7);
  EXPECT_EQ(loaded.events()[1].kind, "scroll");
}

TEST(InputTraceTest, CsvRoundTripIsExact) {
  // Nanosecond-resolution times and "ugly" doubles must survive the trip —
  // replayed traces feed deterministic experiments, so lossy serialization
  // would silently change results.
  InputTrace trace;
  trace.Record(SimTime::Nanos(1234567), "arrival", 1.0 / 3.0);
  trace.Record(SimTime::Nanos(9876543210), "service_us", 0.1234567890123456);
  std::stringstream ss;
  trace.WriteCsv(ss);
  const InputTrace loaded = InputTrace::ReadCsv(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.events()[0], trace.events()[0]);
  EXPECT_EQ(loaded.events()[1], trace.events()[1]);
}

TEST(InputTraceTest, KindWithCommaSurvivesRoundTrip) {
  InputTrace trace;
  trace.Record(SimTime::Millis(1), "load,heavy", 2.0);
  trace.Record(SimTime::Millis(2), "say \"hi\"", 1.0);
  std::stringstream ss;
  trace.WriteCsv(ss);
  const InputTrace loaded = InputTrace::ReadCsv(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.events()[0].kind, "load,heavy");
  EXPECT_EQ(loaded.events()[1].kind, "say \"hi\"");
  EXPECT_DOUBLE_EQ(loaded.events()[0].magnitude, 2.0);
}

TEST(InputTraceTest, ReadCsvRejectsMalformedRows) {
  {
    std::stringstream ss("time_us,kind,magnitude\n1000,tap,1.0\nbroken row\n");
    EXPECT_THROW(InputTrace::ReadCsv(ss), std::invalid_argument);
  }
  {  // missing field
    std::stringstream ss("time_us,kind,magnitude\n1000,tap\n");
    EXPECT_THROW(InputTrace::ReadCsv(ss), std::invalid_argument);
  }
  {  // extra field
    std::stringstream ss("time_us,kind,magnitude\n1000,tap,1.0,extra\n");
    EXPECT_THROW(InputTrace::ReadCsv(ss), std::invalid_argument);
  }
  {  // unparsable time
    std::stringstream ss("time_us,kind,magnitude\nsoon,tap,1.0\n");
    EXPECT_THROW(InputTrace::ReadCsv(ss), std::invalid_argument);
  }
  {  // trailing garbage on a number
    std::stringstream ss("time_us,kind,magnitude\n1000,tap,1.0x\n");
    EXPECT_THROW(InputTrace::ReadCsv(ss), std::invalid_argument);
  }
  {  // negative time
    std::stringstream ss("time_us,kind,magnitude\n-5,tap,1.0\n");
    EXPECT_THROW(InputTrace::ReadCsv(ss), std::invalid_argument);
  }
  for (const char* magnitude : {"nan", "inf", "-inf"}) {  // non-finite magnitude
    std::stringstream ss(std::string("time_us,kind,magnitude\n1000,tap,") + magnitude + "\n");
    EXPECT_THROW(InputTrace::ReadCsv(ss), std::invalid_argument) << magnitude;
  }
}

TEST(InputTraceTest, ReadCsvRejectsOutOfOrderTimestamps) {
  std::stringstream ss("time_us,kind,magnitude\n2000,tap,1.0\n1000,tap,1.0\n");
  EXPECT_THROW(InputTrace::ReadCsv(ss), std::invalid_argument);
}

TEST(InputTraceTest, ReadCsvRequiresHeader) {
  std::stringstream ss("1000,tap,1.0\n");
  EXPECT_THROW(InputTrace::ReadCsv(ss), std::invalid_argument);
}

TEST(InputTraceTest, ReadCsvErrorNamesTheLine) {
  std::stringstream ss("time_us,kind,magnitude\n1000,tap,1.0\n# comment\n\nbad\n");
  try {
    InputTrace::ReadCsv(ss);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos) << e.what();
  }
}

TEST(InputTraceTest, ReadCsvSkipsCommentsAndBlankLines) {
  std::stringstream ss(
      "# recorded 2026-08-08\ntime_us,kind,magnitude\n\n1000,tap,1.0\n# mid\n2000,tap,2.0\n");
  const InputTrace loaded = InputTrace::ReadCsv(ss);
  EXPECT_EQ(loaded.size(), 2u);
}

TEST(InputTraceTest, ReplayJitterPreservesOrderAndCount) {
  InputTrace trace;
  for (int i = 0; i < 100; ++i) {
    trace.Record(SimTime::Millis(10 * i), "tap", 1.0);
  }
  Rng rng(5);
  const InputTrace jittered = trace.WithReplayJitter(rng, SimTime::Millis(2));
  ASSERT_EQ(jittered.size(), trace.size());
  SimTime previous;
  for (const InputEvent& event : jittered.events()) {
    EXPECT_GE(event.at, previous);
    previous = event.at;
  }
}

TEST(InputTraceTest, ReplayJitterBoundedByMillisecondAccuracy) {
  // The paper's replay rig is millisecond-accurate; default jitter is 0.5 ms.
  InputTrace trace;
  for (int i = 1; i <= 50; ++i) {
    trace.Record(SimTime::Seconds(i), "tap", 1.0);
  }
  Rng rng(9);
  const InputTrace jittered = trace.WithReplayJitter(rng);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const SimTime delta = jittered.events()[i].at - trace.events()[i].at;
    EXPECT_LE(delta.nanos(), 500000);
    EXPECT_GE(delta.nanos(), -500000);
  }
}

TEST(InputTraceTest, ReplayJitterActuallyPerturbs) {
  InputTrace trace;
  for (int i = 1; i <= 20; ++i) {
    trace.Record(SimTime::Seconds(i), "tap", 1.0);
  }
  Rng rng(11);
  const InputTrace jittered = trace.WithReplayJitter(rng);
  bool any_moved = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    any_moved |= (jittered.events()[i].at != trace.events()[i].at);
  }
  EXPECT_TRUE(any_moved);
}

TEST(InputTraceTest, JitterNeverProducesNegativeTimes) {
  InputTrace trace;
  trace.Record(SimTime::Micros(100), "tap", 1.0);
  Rng rng(13);
  const InputTrace jittered = trace.WithReplayJitter(rng, SimTime::Millis(10));
  EXPECT_GE(jittered.events()[0].at, SimTime::Zero());
}

TEST(InputTraceTest, JitterClampsFirstEventNearZeroAcrossManySeeds) {
  // First event well inside the jitter window of t=0: roughly half the draws
  // go negative before clamping.  Every emitted time must be >= 0 and the
  // trace must stay ordered for every seed.
  InputTrace trace;
  trace.Record(SimTime::Micros(10), "tap", 1.0);
  trace.Record(SimTime::Micros(20), "tap", 1.0);
  trace.Record(SimTime::Micros(30), "tap", 1.0);
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    const InputTrace jittered = trace.WithReplayJitter(rng, SimTime::Millis(1));
    SimTime previous;
    for (const InputEvent& event : jittered.events()) {
      EXPECT_GE(event.at, SimTime::Zero()) << "seed " << seed;
      EXPECT_GE(event.at, previous) << "seed " << seed;
      previous = event.at;
    }
  }
}

TEST(InputTraceTest, JitterKeepsEqualTimeEventsInRecordedOrder) {
  // Simultaneous events (a tap and its page-load, say) must not swap: each
  // event is only ever clamped up to the previous emitted time, never past
  // it, so record order is preserved for every seed.
  InputTrace trace;
  trace.Record(SimTime::Zero(), "first", 1.0);
  trace.Record(SimTime::Zero(), "second", 2.0);
  trace.Record(SimTime::Zero(), "third", 3.0);
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    const InputTrace jittered = trace.WithReplayJitter(rng, SimTime::Millis(1));
    ASSERT_EQ(jittered.size(), 3u);
    EXPECT_EQ(jittered.events()[0].kind, "first") << "seed " << seed;
    EXPECT_EQ(jittered.events()[1].kind, "second") << "seed " << seed;
    EXPECT_EQ(jittered.events()[2].kind, "third") << "seed " << seed;
    EXPECT_LE(jittered.events()[0].at, jittered.events()[1].at) << "seed " << seed;
    EXPECT_LE(jittered.events()[1].at, jittered.events()[2].at) << "seed " << seed;
  }
}

TEST(InputTraceTest, NegativeJitterThrows) {
  InputTrace trace;
  trace.Record(SimTime::Millis(1), "tap", 1.0);
  Rng rng(3);
  EXPECT_THROW(trace.WithReplayJitter(rng, SimTime::Millis(-1)), std::invalid_argument);
}

}  // namespace
}  // namespace dcs
