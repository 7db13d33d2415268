// Append-only, CRC32-framed sweep journal.
//
// A sweep run with --resume=FILE (see sweep.h) persists every finished job
// here so a re-invoked bench replays completed slots byte-identically and
// only runs the remainder.  The format is built for exactly one failure
// mode: the writing process dies mid-append (SIGKILL, OOM, power).  Frames
// are self-checking, so the reader accepts the longest valid prefix and
// reports the torn tail; the writer truncates that tail before appending.
//
// On-disk layout — a sequence of frames, each:
//
//   u32  magic        'DCSJ' (0x4A534344 little-endian)
//   u32  payload_len
//   u32  crc32(payload)     IEEE 802.3, see atomic_io.h
//   u8[payload_len]         payload, first byte = frame type
//
// Frame types:
//   kHeaderFrame:  version, grid fingerprint, job count, free-form label.
//                  One per journaled sweep; a journal holds several segments
//                  when one bench process runs several grids (e.g. Table 2's
//                  five RunRepeated rows) or a sweep is resumed.
//   kRecordFrame:  slot index, per-config fingerprint, attempts, outcome
//                  (ok / error / quarantined) and, for successes, the full
//                  serialized ExperimentResult.
//
// Fingerprints are FNV-1a 64 over a canonical serialization of the
// ExperimentConfig, so a journal written for a different grid (or an edited
// config) never silently replays into the wrong sweep.
//
// Reading follows the InvariantChecker's record-don't-throw idiom
// (src/fault/invariants.h): structural problems — record before any header,
// duplicate slot, slot out of range, version mismatch — are collected as
// violation strings on the result while the valid frames are still returned.
//
// Payloads are written with the snapshot codec (src/sim/snapshot.h), in the
// host's native byte order: a journal is a crash-resume artifact for the
// machine that wrote it, not an interchange format.

#ifndef SRC_EXP_JOURNAL_H_
#define SRC_EXP_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/exp/experiment.h"
#include "src/sim/snapshot.h"

namespace dcs {

// --- Config fingerprints ----------------------------------------------------

// FNV-1a 64 over a canonical serialization of every simulation-relevant
// config field (not the cancel token or capture flag — those change how a
// job is run, not what it computes).
std::uint64_t ConfigFingerprint(const ExperimentConfig& config);

// Fingerprint of a whole grid: order-sensitive combination of every config's
// fingerprint plus the grid size.
std::uint64_t GridFingerprint(const std::vector<ExperimentConfig>& configs);

// --- Result serialization ---------------------------------------------------

// Serializes every ExperimentResult field a bench or exporter can read —
// scalars, step residency, task CPU seconds, deadline streams, every
// recorded series, the full metrics registry and the fault report — except
// the raw ObsCapture (power tape + scheduler log), which is orders of
// magnitude larger than everything else; sweeps therefore don't journal
// runs that request capture_obs.
void SerializeResult(const ExperimentResult& result, SnapshotWriter* out);

// Inverse of SerializeResult.  Returns false (result unspecified) on a
// malformed or truncated payload, or on one with trailing bytes.
bool DeserializeResult(SnapshotReader* in, ExperimentResult* result);

// --- Journal frames ---------------------------------------------------------

inline constexpr std::uint32_t kJournalMagic = 0x4A534344u;  // "DCSJ"
// v2: per-stream latency histograms in StreamStats; server app in the config
// fingerprint.  Version-mismatched segments are ignored wholesale, so a v1
// journal forces a fresh run instead of replaying shape-incompatible records.
// v3: admission-control counters (StreamStats::rejected/shed) and the
// server scenario's stream classes + admission policy in the fingerprint.
inline constexpr std::uint32_t kJournalVersion = 3;

struct JournalHeader {
  std::uint32_t version = kJournalVersion;
  std::uint64_t grid_fingerprint = 0;
  std::uint32_t jobs = 0;
  std::string label;
};

struct JournalRecord {
  std::uint32_t slot = 0;
  std::uint64_t config_fingerprint = 0;
  bool ok = false;
  bool quarantined = false;
  std::uint32_t attempts = 1;
  std::string error;          // meaningful when !ok
  ExperimentResult result;    // meaningful when ok
};

// One header and the records appended under it.
struct JournalSegment {
  JournalHeader header;
  std::vector<JournalRecord> records;
};

struct JournalReadResult {
  // False when the file doesn't exist or no complete valid frame parses.
  bool readable = false;
  std::vector<JournalSegment> segments;
  // Byte offset of the end of the last valid frame; a writer appending to
  // this journal must truncate to here first.
  std::uint64_t valid_bytes = 0;
  // True when trailing bytes after valid_bytes were dropped (torn append).
  bool truncated = false;
  // InvariantChecker-style structural findings (recorded, not thrown).
  std::vector<std::string> violations;

  // Records from every segment whose header matches (fingerprint + jobs).
  std::vector<const JournalRecord*> MatchingRecords(std::uint64_t grid_fingerprint,
                                                    std::uint32_t jobs) const;
};

// Parses the journal at `path`.  Never throws: unreadable or torn journals
// come back with readable=false / truncated=true and violations describing
// what was dropped.
JournalReadResult ReadJournal(const std::string& path);

// Appender.  All writes are frame-at-a-time with an fsync after each, so a
// kill between appends loses at most the frame being written — which the
// reader then drops as a torn tail.
class JournalWriter {
 public:
  // Creates (or truncates) `path`.  Returns null and fills *error on I/O
  // failure.
  static std::unique_ptr<JournalWriter> Create(const std::string& path,
                                               std::string* error);
  // Opens `path` for appending, first truncating it to `valid_bytes` (from
  // ReadJournal) so a torn tail is never buried under new frames.
  static std::unique_ptr<JournalWriter> Append(const std::string& path,
                                               std::uint64_t valid_bytes,
                                               std::string* error);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  bool AppendHeader(const JournalHeader& header, std::string* error);
  bool AppendRecord(const JournalRecord& record, std::string* error);

 private:
  explicit JournalWriter(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  bool AppendFrame(const SnapshotWriter& payload, std::string* error);

  int fd_ = -1;
  std::string path_;
};

}  // namespace dcs

#endif  // SRC_EXP_JOURNAL_H_
