#include "src/exp/journal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "tests/fault/fingerprint.h"

namespace dcs {
namespace {

namespace fs = std::filesystem;

ExperimentConfig ShortMpeg(std::uint64_t seed, const std::string& governor = "fixed-206.4") {
  ExperimentConfig config;
  config.app = "mpeg";
  config.governor = governor;
  config.seed = seed;
  config.duration = SimTime::Seconds(2);
  return config;
}

std::string MetricsJson(const ExperimentResult& r) {
  std::ostringstream os;
  r.metrics.WriteJson(os);
  return os.str();
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("dcs_journal_") + info->name() + "_" +
            std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "campaign.journal").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Writes one header + two records (slot 0 ok with a real result, slot 2
  // failed/quarantined) and returns the serialized result's fingerprint.
  std::string WriteSampleJournal(const std::vector<ExperimentConfig>& grid) {
    const ExperimentResult result = RunExperiment(grid[0]);
    std::string error;
    auto writer = JournalWriter::Create(path_, &error);
    EXPECT_NE(writer, nullptr) << error;
    JournalHeader header;
    header.grid_fingerprint = GridFingerprint(grid);
    header.jobs = static_cast<std::uint32_t>(grid.size());
    header.label = "test";
    EXPECT_TRUE(writer->AppendHeader(header, &error)) << error;

    JournalRecord ok_record;
    ok_record.slot = 0;
    ok_record.config_fingerprint = ConfigFingerprint(grid[0]);
    ok_record.ok = true;
    ok_record.result = result;
    EXPECT_TRUE(writer->AppendRecord(ok_record, &error)) << error;

    JournalRecord bad_record;
    bad_record.slot = 2;
    bad_record.config_fingerprint = ConfigFingerprint(grid[2]);
    bad_record.ok = false;
    bad_record.quarantined = true;
    bad_record.attempts = 3;
    bad_record.error = "watchdog timeout";
    EXPECT_TRUE(writer->AppendRecord(bad_record, &error)) << error;
    return Fingerprint(result);
  }

  fs::path dir_;
  std::string path_;
};

TEST(ByteStreamTest, RoundTripsEveryFieldType) {
  SnapshotWriter w;
  w.U8(7);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F64(3.25);
  w.Time(SimTime::Micros(1500));
  w.Str("hello");
  w.Str("");

  SnapshotReader r(w);
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.F64(), 3.25);
  EXPECT_EQ(r.Time(), SimTime::Micros(1500));
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteStreamTest, StrIsALengthPrefixThenTheBytes) {
  SnapshotWriter w;
  w.Str("abc");
  const std::uint32_t len = 3;
  std::string expected(reinterpret_cast<const char*>(&len), sizeof(len));
  expected += "abc";
  EXPECT_EQ(std::string(w.data(), w.size()), expected);
}

TEST(ByteStreamTest, ReadingPastTheEndLatchesNotOk) {
  SnapshotWriter w;
  w.U32(1);
  SnapshotReader r(w);
  EXPECT_EQ(r.U32(), 1u);
  EXPECT_EQ(r.U64(), 0u);  // past the end: zero value, ok() latched false
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(ByteStreamTest, OversizedStringLengthLatchesNotOk) {
  // A length field larger than the bytes that remain is refused before the
  // reader allocates: the string comes back empty, not 4 GiB long.
  SnapshotWriter w;
  w.U32(0xFFFFFFFFu);
  w.Bytes("abc", 3);
  SnapshotReader r(w);
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(ConfigFingerprintTest, SensitiveToEverySimulationRelevantField) {
  const ExperimentConfig base = ShortMpeg(1);
  EXPECT_EQ(ConfigFingerprint(base), ConfigFingerprint(ShortMpeg(1)));

  ExperimentConfig changed = base;
  changed.seed = 2;
  EXPECT_NE(ConfigFingerprint(changed), ConfigFingerprint(base));
  changed = base;
  changed.governor = "PAST-peg-peg-93-98";
  EXPECT_NE(ConfigFingerprint(changed), ConfigFingerprint(base));
  changed = base;
  changed.duration = SimTime::Seconds(3);
  EXPECT_NE(ConfigFingerprint(changed), ConfigFingerprint(base));
  changed = base;
  changed.faults = "storm=0.4,seed=11";
  EXPECT_NE(ConfigFingerprint(changed), ConfigFingerprint(base));
  changed = base;
  changed.kernel.quantum = changed.kernel.quantum * 2;
  EXPECT_NE(ConfigFingerprint(changed), ConfigFingerprint(base));
}

TEST(ConfigFingerprintTest, IgnoresHowNotWhatFields) {
  // The cancel token and capture flag change how a job runs, never what it
  // computes — a resumed campaign with a watchdog must still match a journal
  // written without one.
  const ExperimentConfig base = ShortMpeg(1);
  ExperimentConfig with_harness_knobs = base;
  std::atomic<bool> cancel{false};
  with_harness_knobs.cancel = &cancel;
  EXPECT_EQ(ConfigFingerprint(with_harness_knobs), ConfigFingerprint(base));
}

TEST(GridFingerprintTest, OrderAndSizeSensitive) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2)};
  const std::vector<ExperimentConfig> swapped = {ShortMpeg(2), ShortMpeg(1)};
  const std::vector<ExperimentConfig> prefix = {ShortMpeg(1)};
  EXPECT_EQ(GridFingerprint(grid), GridFingerprint({ShortMpeg(1), ShortMpeg(2)}));
  EXPECT_NE(GridFingerprint(grid), GridFingerprint(swapped));
  EXPECT_NE(GridFingerprint(grid), GridFingerprint(prefix));
}

std::string SerializedBytes(const ExperimentResult& result) {
  SnapshotWriter w;
  SerializeResult(result, &w);
  return std::string(w.data(), w.size());
}

TEST(ResultSerializationTest, RoundTripsByteIdentically) {
  ExperimentConfig config = ShortMpeg(5, "PAST-peg-peg-93-98");
  config.faults = "storm=0.3,seed=11";  // exercises the FaultReport fields too
  const ExperimentResult original = RunExperiment(config);

  const std::string bytes = SerializedBytes(original);
  SnapshotReader r(bytes.data(), bytes.size());
  ExperimentResult restored;
  ASSERT_TRUE(DeserializeResult(&r, &restored));

  // The test fingerprint covers every reported number in hexfloat, and the
  // metrics JSON covers the full registry.
  EXPECT_EQ(Fingerprint(restored), Fingerprint(original));
  EXPECT_EQ(MetricsJson(restored), MetricsJson(original));
  ASSERT_EQ(restored.streams.size(), original.streams.size());
  EXPECT_EQ(SerializedBytes(restored), bytes);
}

TEST(ResultSerializationTest, RejectsTruncatedPayload) {
  const ExperimentResult original = RunExperiment(ShortMpeg(1));
  const std::string whole = SerializedBytes(original);
  const std::string torn = whole.substr(0, whole.size() / 2);
  SnapshotReader r(torn.data(), torn.size());
  ExperimentResult restored;
  EXPECT_FALSE(DeserializeResult(&r, &restored));
}

TEST(ResultSerializationTest, RejectsEveryStrictPrefix) {
  // Every field boundary and every cut inside a field: no prefix may parse,
  // crash or read past its end.  A short run keeps the payload small enough
  // to try all of them.
  ExperimentConfig config = ShortMpeg(3, "PAST-peg-peg-93-98");
  config.duration = SimTime::Millis(200);
  config.faults = "storm=0.3,seed=11";
  const std::string whole = SerializedBytes(RunExperiment(config));
  ASSERT_GT(whole.size(), 100u);
  for (std::size_t len = 0; len < whole.size(); ++len) {
    // A heap copy of exactly `len` bytes, so an over-read is a real
    // out-of-bounds access that ASan reports.
    const std::unique_ptr<char[]> prefix(new char[len + 1]);
    std::memcpy(prefix.get(), whole.data(), len);
    SnapshotReader r(prefix.get(), len);
    ExperimentResult restored;
    ASSERT_FALSE(DeserializeResult(&r, &restored)) << "prefix of " << len << " bytes";
  }
}

TEST(ResultSerializationTest, RejectsAnAllOnesStringLength) {
  // The app name is the first field; its length field claims 4 GiB.
  std::string bytes = SerializedBytes(RunExperiment(ShortMpeg(1)));
  const std::uint32_t hostile = 0xFFFFFFFFu;
  std::memcpy(bytes.data(), &hostile, sizeof(hostile));
  SnapshotReader r(bytes.data(), bytes.size());
  ExperimentResult restored;
  EXPECT_FALSE(DeserializeResult(&r, &restored));
  EXPECT_TRUE(restored.app.empty());
}

TEST_F(JournalTest, WriteReadRoundTrip) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2), ShortMpeg(3)};
  const std::string expected_fp = WriteSampleJournal(grid);

  const JournalReadResult journal = ReadJournal(path_);
  EXPECT_TRUE(journal.readable);
  EXPECT_FALSE(journal.truncated);
  EXPECT_TRUE(journal.violations.empty());
  ASSERT_EQ(journal.segments.size(), 1u);
  const JournalSegment& segment = journal.segments[0];
  EXPECT_EQ(segment.header.grid_fingerprint, GridFingerprint(grid));
  EXPECT_EQ(segment.header.jobs, 3u);
  EXPECT_EQ(segment.header.label, "test");
  ASSERT_EQ(segment.records.size(), 2u);

  const JournalRecord& ok_record = segment.records[0];
  EXPECT_TRUE(ok_record.ok);
  EXPECT_EQ(ok_record.slot, 0u);
  EXPECT_EQ(Fingerprint(ok_record.result), expected_fp);

  const JournalRecord& bad_record = segment.records[1];
  EXPECT_FALSE(bad_record.ok);
  EXPECT_TRUE(bad_record.quarantined);
  EXPECT_EQ(bad_record.slot, 2u);
  EXPECT_EQ(bad_record.attempts, 3u);
  EXPECT_EQ(bad_record.error, "watchdog timeout");

  const auto matching = journal.MatchingRecords(GridFingerprint(grid), 3);
  EXPECT_EQ(matching.size(), 2u);
  EXPECT_TRUE(journal.MatchingRecords(GridFingerprint(grid) ^ 1, 3).empty());
  EXPECT_TRUE(journal.MatchingRecords(GridFingerprint(grid), 4).empty());
}

TEST_F(JournalTest, TruncatedMidFrameKeepsThePrefixAndResumesCleanly) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2), ShortMpeg(3)};
  WriteSampleJournal(grid);
  const JournalReadResult intact = ReadJournal(path_);
  ASSERT_TRUE(intact.readable);
  ASSERT_EQ(intact.segments[0].records.size(), 2u);

  // Chop the file mid-way through the last frame — the torn-append state a
  // SIGKILL leaves behind.
  const auto full_size = fs::file_size(path_);
  fs::resize_file(path_, full_size - 7);

  const JournalReadResult torn = ReadJournal(path_);
  EXPECT_TRUE(torn.readable);
  EXPECT_TRUE(torn.truncated);
  ASSERT_EQ(torn.segments.size(), 1u);
  ASSERT_EQ(torn.segments[0].records.size(), 1u);  // the ok record survives
  EXPECT_LT(torn.valid_bytes, full_size - 7);

  // Appending through the writer truncates the torn tail first; the re-added
  // record must parse cleanly afterwards.
  std::string error;
  auto writer = JournalWriter::Append(path_, torn.valid_bytes, &error);
  ASSERT_NE(writer, nullptr) << error;
  JournalRecord record;
  record.slot = 1;
  record.config_fingerprint = ConfigFingerprint(grid[1]);
  record.ok = false;
  record.error = "retry later";
  ASSERT_TRUE(writer->AppendRecord(record, &error)) << error;

  const JournalReadResult repaired = ReadJournal(path_);
  EXPECT_TRUE(repaired.readable);
  EXPECT_FALSE(repaired.truncated);
  ASSERT_EQ(repaired.segments.size(), 1u);
  ASSERT_EQ(repaired.segments[0].records.size(), 2u);
  EXPECT_EQ(repaired.segments[0].records[1].slot, 1u);
  EXPECT_EQ(repaired.segments[0].records[1].error, "retry later");
}

TEST_F(JournalTest, CorruptedFrameDropsTheTailWithAViolation) {
  const std::vector<ExperimentConfig> grid = {ShortMpeg(1), ShortMpeg(2), ShortMpeg(3)};
  WriteSampleJournal(grid);

  // Flip one byte near the end of the file: inside the last frame's payload,
  // so its CRC no longer matches.
  std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(-3, std::ios::end);
  char byte = 0;
  file.get(byte);
  file.seekp(-3, std::ios::end);
  file.put(static_cast<char>(byte ^ 0x5A));
  file.close();

  const JournalReadResult corrupt = ReadJournal(path_);
  EXPECT_TRUE(corrupt.readable);
  EXPECT_TRUE(corrupt.truncated);
  ASSERT_EQ(corrupt.segments.size(), 1u);
  EXPECT_EQ(corrupt.segments[0].records.size(), 1u);
  EXPECT_FALSE(corrupt.violations.empty());
}

TEST_F(JournalTest, MissingFileIsNotReadable) {
  const JournalReadResult journal = ReadJournal((dir_ / "nope.journal").string());
  EXPECT_FALSE(journal.readable);
  EXPECT_TRUE(journal.segments.empty());
  EXPECT_EQ(journal.valid_bytes, 0u);
}

TEST_F(JournalTest, RecordBeforeAnyHeaderIsAStructuralViolation) {
  std::string error;
  auto writer = JournalWriter::Create(path_, &error);
  ASSERT_NE(writer, nullptr) << error;
  JournalRecord record;
  record.slot = 0;
  record.ok = false;
  record.error = "orphan";
  ASSERT_TRUE(writer->AppendRecord(record, &error)) << error;

  const JournalReadResult journal = ReadJournal(path_);
  EXPECT_FALSE(journal.violations.empty());
  EXPECT_TRUE(journal.segments.empty());
}

TEST_F(JournalTest, MultipleSegmentsKeyedByGridFingerprint) {
  // One journal, two grids — the multi-RunSweep-per-process case (e.g. the
  // Table 2 bench runs five separate grids against one --resume path).
  const std::vector<ExperimentConfig> grid_a = {ShortMpeg(1)};
  const std::vector<ExperimentConfig> grid_b = {ShortMpeg(9), ShortMpeg(10)};
  std::string error;
  auto writer = JournalWriter::Create(path_, &error);
  ASSERT_NE(writer, nullptr) << error;
  for (const auto* grid : {&grid_a, &grid_b}) {
    JournalHeader header;
    header.grid_fingerprint = GridFingerprint(*grid);
    header.jobs = static_cast<std::uint32_t>(grid->size());
    ASSERT_TRUE(writer->AppendHeader(header, &error)) << error;
    JournalRecord record;
    record.slot = 0;
    record.config_fingerprint = ConfigFingerprint((*grid)[0]);
    record.ok = false;
    record.error = "placeholder";
    ASSERT_TRUE(writer->AppendRecord(record, &error)) << error;
  }

  const JournalReadResult journal = ReadJournal(path_);
  ASSERT_EQ(journal.segments.size(), 2u);
  EXPECT_EQ(journal.MatchingRecords(GridFingerprint(grid_a), 1).size(), 1u);
  EXPECT_EQ(journal.MatchingRecords(GridFingerprint(grid_b), 2).size(), 1u);
  EXPECT_TRUE(journal.MatchingRecords(GridFingerprint(grid_a), 2).empty());
}

}  // namespace
}  // namespace dcs
