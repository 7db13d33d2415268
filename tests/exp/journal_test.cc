#include "src/exp/journal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/fields.h"
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

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
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
    const ExperimentResult result = RunExperiment(grid[0], ExperimentReads::kFullResult);
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

// An mpeg config with its MpegConfig section present.
ExperimentConfig MpegSection() {
  ExperimentConfig config = ShortMpeg(1);
  config.mpeg.emplace();
  return config;
}

// A server config with two stream classes, a feedback admission gate, a
// battery and the DAQ: every remaining optional section.
ExperimentConfig ServerAdmissionSection() {
  ExperimentConfig config;
  config.app = "server";
  config.governor = "pid-vs";
  config.seed = 7;
  config.duration = SimTime::Seconds(4);
  config.server.emplace();
  config.server->rate_rps = 80.0;
  config.server->duration = SimTime::Seconds(4);
  config.server->streams = {{"interactive", 2.0, 1.0}, {"batch", 0.5, 3.0}};
  config.server->admission.policy = AdmissionPolicy::kFeedback;
  config.itsy.battery = BatteryParams{};
  return config;
}

TEST(ConfigFingerprintTest, SensitiveToEverySection) {
  const ExperimentConfig mpeg = MpegSection();
  EXPECT_NE(ConfigFingerprint(mpeg), ConfigFingerprint(ShortMpeg(1)));
  ExperimentConfig changed = mpeg;
  changed.mpeg->video_profile.line_fills_per_kilocycle += 1.0;
  EXPECT_NE(ConfigFingerprint(changed), ConfigFingerprint(mpeg)) << "mpeg";

  const ExperimentConfig server = ServerAdmissionSection();
  changed = server;
  changed.server->rate_rps = 81.0;
  EXPECT_NE(ConfigFingerprint(changed), ConfigFingerprint(server)) << "server";
  changed = server;
  changed.server->streams[1].weight = 2.0;
  EXPECT_NE(ConfigFingerprint(changed), ConfigFingerprint(server)) << "stream class";
  changed = server;
  changed.server->admission.utilization_bound += 0.05;
  EXPECT_NE(ConfigFingerprint(changed), ConfigFingerprint(server)) << "admission";
  changed = server;
  changed.itsy.battery->recovery_per_hour = 0.25;
  EXPECT_NE(ConfigFingerprint(changed), ConfigFingerprint(server)) << "battery";
  changed = server;
  changed.daq.noise_lsb += 0.5;
  EXPECT_NE(ConfigFingerprint(changed), ConfigFingerprint(server)) << "daq";
}

// Recorded before the fingerprint's sections were first run by a test; a
// rewrite of ConfigFingerprint must keep these bytes, or every journal on
// disk stops resuming.
TEST(ConfigFingerprintTest, SectionFingerprintsArePinned) {
  EXPECT_EQ(Hex(ConfigFingerprint(MpegSection())), "7c8058ced741c0c8");
  EXPECT_EQ(Hex(ConfigFingerprint(ServerAdmissionSection())), "8429a594096682af");
}

template <typename T>
concept HasFields = requires(const T* t) { Fields(t); };

// An unlisted member that hides in the struct's padding leaves the sizes
// equal, so only the member count catches it.
struct PaddingProbe {
  double a = 0.0;
  bool b = false;
  bool hidden = false;
};
constexpr auto Fields(const PaddingProbe*) {
  return std::tuple{&PaddingProbe::a, &PaddingProbe::b};
}
static_assert(LaidOutSize<double, bool>() == sizeof(PaddingProbe));
static_assert(MemberCount<PaddingProbe>() == 3);
static_assert(!ListsEveryField<PaddingProbe>());

// One edit of a config, named by its path through the field lists.
struct FieldEdit {
  std::string path;
  std::function<void(ExperimentConfig&)> apply;
};

template <typename V>
void Nudge(V& v) {
  if constexpr (std::is_same_v<V, bool>) {
    v = !v;
  } else if constexpr (std::is_enum_v<V>) {
    v = static_cast<V>(static_cast<int>(v) + 1);
  } else if constexpr (std::is_same_v<V, SimTime>) {
    v = v + SimTime::Nanos(1);
  } else if constexpr (std::is_same_v<V, std::string>) {
    v += "x";
  } else {
    v = v + 1;
  }
}

// Appends an edit for every field reachable from the value `at` selects, by
// the same field lists ConfigFingerprint walks: one nudge per scalar, plus a
// reset per (present) optional and a new element per vector.
template <typename V, typename At>
void CollectEdits(std::vector<FieldEdit>& edits, const std::string& path, At at) {
  if constexpr (HasFields<V>) {
    constexpr auto fields = Fields(static_cast<const V*>(nullptr));
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (CollectEdits<std::remove_reference_t<decltype(std::declval<V&>().*std::get<I>(fields))>>(
           edits, path + "." + std::to_string(I),
           [at, fields](ExperimentConfig& c) -> auto& { return at(c).*std::get<I>(fields); }),
       ...);
    }(std::make_index_sequence<std::tuple_size_v<decltype(fields)>>{});
  } else if constexpr (OptionalField<V>) {
    edits.push_back({path + " presence", [at](ExperimentConfig& c) { at(c).reset(); }});
    CollectEdits<typename V::value_type>(edits, path,
                                         [at](ExperimentConfig& c) -> auto& { return *at(c); });
  } else if constexpr (VectorField<V>) {
    edits.push_back({path + " count", [at](ExperimentConfig& c) { at(c).emplace_back(); }});
    CollectEdits<typename V::value_type>(
        edits, path + "[0]", [at](ExperimentConfig& c) -> auto& { return at(c).front(); });
  } else {
    edits.push_back({path, [at](ExperimentConfig& c) { Nudge(at(c)); }});
  }
}

TEST(ConfigFingerprintTest, EveryListedFieldIsHashed) {
  // Every optional present and every vector non-empty, so the walk reaches
  // every field of every list.
  ExperimentConfig base = ServerAdmissionSection();
  base.mpeg.emplace();
  ASSERT_FALSE(base.server->streams.empty());
  ASSERT_TRUE(base.itsy.battery.has_value());

  std::vector<FieldEdit> edits;
  CollectEdits<std::optional<MpegConfig>>(
      edits, "mpeg", [](ExperimentConfig& c) -> auto& { return c.mpeg; });
  CollectEdits<std::optional<ServerConfig>>(
      edits, "server", [](ExperimentConfig& c) -> auto& { return c.server; });
  CollectEdits<ItsyConfig>(edits, "itsy", [](ExperimentConfig& c) -> auto& { return c.itsy; });
  CollectEdits<KernelConfig>(edits, "kernel",
                             [](ExperimentConfig& c) -> auto& { return c.kernel; });
  CollectEdits<DaqConfig>(edits, "daq", [](ExperimentConfig& c) -> auto& { return c.daq; });
  // 80 scalar fields, 3 optionals and 1 vector.
  EXPECT_EQ(edits.size(), 84u);

  const std::uint64_t fingerprint = ConfigFingerprint(base);
  for (const FieldEdit& edit : edits) {
    ExperimentConfig changed = base;
    edit.apply(changed);
    EXPECT_NE(ConfigFingerprint(changed), fingerprint) << edit.path;
  }
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
  const ExperimentResult original = RunExperiment(config, ExperimentReads::kFullResult);

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
  const ExperimentResult original = RunExperiment(ShortMpeg(1), ExperimentReads::kFullResult);
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
  const std::string whole = SerializedBytes(RunExperiment(config, ExperimentReads::kFullResult));
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
  std::string bytes = SerializedBytes(RunExperiment(ShortMpeg(1), ExperimentReads::kFullResult));
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

TEST_F(JournalTest, UnopenablePathFailsWithTheOperationAndPath) {
  // The journal's parent is a regular file, so neither open can succeed.
  const fs::path not_a_dir = dir_ / "plain_file";
  std::ofstream(not_a_dir) << "x";
  const std::string path = (not_a_dir / "campaign.journal").string();

  std::string error;
  EXPECT_EQ(JournalWriter::Create(path, &error), nullptr);
  EXPECT_EQ(error.rfind("create journal '" + path + "': ", 0), 0u) << error;
  error.clear();
  EXPECT_EQ(JournalWriter::Append(path, 0, &error), nullptr);
  EXPECT_EQ(error.rfind("open journal '" + path + "': ", 0), 0u) << error;
  EXPECT_FALSE(ReadJournal(path).readable);
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
