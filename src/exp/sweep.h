// Deterministic parallel experiment engine.
//
// Every bench and the repeated-run harness fan independent `RunExperiment`
// calls over a grid of configurations; each call owns its Simulator, Itsy,
// Kernel and DAQ, so the jobs share nothing and can run on any thread.  The
// SweepRunner exploits that: a fixed-size pool of workers pulls jobs off a
// shared index and writes each result into the slot matching the job's
// position in the input vector.  Because a job's output depends only on its
// config (the whole stack is seeded-deterministic), the assembled result
// vector is bit-identical for --threads=1 and --threads=N; only wall-clock
// time changes.
//
// A sweep also survives its own harness: the process being SIGKILLed
// mid-run, one config hanging its simulator, a job crashing on one grid
// point.  Three mechanisms, driven by CampaignOptions:
//
//   * Checkpoint/resume (--resume=FILE): every finished job is appended to a
//     CRC32-framed journal (journal.h) with an fsync before the next job's
//     result can land.  A re-invoked bench with the same grid replays the
//     journaled slots byte-identically — same energy numbers, same series,
//     same metrics JSON — and only runs the remainder.  A journal written
//     for a different grid fails the fingerprint check and is never replayed.
//     Grids that request raw observability captures run unjournaled (with a
//     stderr note): the journal deliberately does not persist an ObsCapture.
//
//   * Per-job watchdog (--job-timeout=SECS): each attempt gets a wall-clock
//     budget, enforced through the cooperative cancellation token threaded
//     into the job's Simulator event loop.  A runaway job is cancelled
//     between events and counted as a failed attempt.
//
//   * Bounded retry + quarantine (--max-retries=N), for every run: a failed
//     attempt is retried with exponential backoff (the same 2^k shape as the
//     Kernel's clock-transition retry); a job that exhausts its retries is
//     quarantined — listed in SweepMetrics, in the journal and, when asked
//     for, in a machine-readable quarantine.json — while every other job
//     still runs to completion.  Invalid configs (unknown governor, bad
//     fault spec) throw std::invalid_argument, fail the same way every time
//     and go straight to quarantine without burning retries.
//
// Replayed slots are byte-identical to freshly computed ones, so a sweep
// killed and resumed any number of times produces the same stdout/report
// bytes as an uninterrupted run (enforced end-to-end by bench/campaign_soak).
// All diagnostics go to stderr.

#ifndef SRC_EXP_SWEEP_H_
#define SRC_EXP_SWEEP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/exp/experiment.h"

namespace dcs {

// Resilience knobs (see the header comment).  Parsed from the same argv as
// the sweep flags, so every sweep bench accepts them.
struct CampaignOptions {
  // --resume=FILE: append-only CRC32-framed journal (journal.h).  Completed
  // slots recorded there are replayed byte-identically instead of re-run; a
  // journal written for a different config grid never matches (fingerprint
  // check) and forces a fresh run.
  std::string resume;
  // --job-timeout=SECS: wall-clock watchdog per job attempt.  On expiry the
  // job's simulator loop is cooperatively cancelled and the attempt counts
  // as a failure (retried, then quarantined).  0 disables the watchdog.
  double job_timeout = 0.0;
  // --max-retries=N: failed/timed-out jobs are retried up to N times with
  // bounded exponential backoff (25 ms, doubling) before being quarantined.
  // Invalid configs (bad governor/fault spec) are permanent failures and
  // skip retries.  N must lie in [0, kMaxRetries]: the last backoff is then
  // 25 ms * 2^15, about 14 minutes.
  static constexpr int kMaxRetries = 16;
  int max_retries = 2;
  // --quarantine-out=FILE: machine-readable JSON report of quarantined
  // configs.  Defaults to "<resume>.quarantine.json" when --resume is set.
  std::string quarantine_out;

  std::string QuarantinePath() const {
    if (!quarantine_out.empty()) {
      return quarantine_out;
    }
    return resume.empty() ? std::string() : resume + ".quarantine.json";
  }
};

struct SweepOptions {
  // Worker threads; 0 means std::thread::hardware_concurrency() (at least 1).
  int threads = 0;
  // When true, a progress line (jobs done, wall seconds, simulated-seconds
  // per wall-second throughput) is rewritten on stderr as jobs finish.
  // Progress goes to stderr precisely so that table output on stdout stays
  // byte-identical across thread counts.
  bool progress = false;
  // --trace-out=FILE: write a merged Chrome trace_event JSON of every run
  // (one trace process per experiment; open in Perfetto / chrome://tracing).
  std::string trace_out;
  // --metrics-out=FILE: write the aggregated metrics registry as JSON.
  std::string metrics_out;
  // --faults=SPEC: fault-injection spec forwarded to every experiment in the
  // grid (see fault_plan.h for the grammar; "" / "none" injects nothing).
  std::string faults;
  // Resilience flags (--resume / --job-timeout / --max-retries /
  // --quarantine-out).
  CampaignOptions campaign;

  // Whether the experiments must capture raw observability data
  // (ExperimentConfig::capture_obs) for the requested outputs.
  bool WantsObsCapture() const { return !trace_out.empty(); }
  bool WantsObsExport() const { return !trace_out.empty() || !metrics_out.empty(); }
};

// Outcome of one job.  Exactly one of `result` / `error` is meaningful.
struct SweepJobResult {
  std::optional<ExperimentResult> result;
  std::string error;

  bool ok() const { return result.has_value(); }
};

// Per-job interception points.  `index` is the job's position in the config
// vector handed to Run().
struct SweepJobHooks {
  // Replaces the default RunExperiment call for each job, on a worker
  // thread.  It runs inside the retry loop and gets the config with the
  // worker's arena (and, under --job-timeout, the watchdog's cancel token)
  // bound; exceptions it lets escape, or a returned error, count as a failed
  // attempt.  It must be a pure function of the config: journal replay hands
  // back recorded results without calling it.  The fleet layer uses this to
  // make one job simulate a whole shard of devices (src/exp/fleet.h).
  std::function<SweepJobResult(const ExperimentConfig&, int index)> execute;
};

// One quarantined config, as written to the quarantine report.
struct QuarantineEntry {
  int slot = 0;
  std::string app;
  std::string governor;
  std::uint64_t seed = 0;
  std::uint64_t config_fingerprint = 0;
  int attempts = 0;
  std::string error;
};

// Outcome of the last Run() call.
struct SweepMetrics {
  int jobs = 0;
  // Slots without a result (executed or replayed), each listed in
  // `quarantined`.
  int failed = 0;
  int threads = 0;
  double wall_seconds = 0.0;
  // Sum of simulated durations across executed jobs, and the resulting
  // throughput in simulated seconds per wall second (the engine's figure of
  // merit).  Replayed slots cost no wall clock and are excluded.
  double simulated_seconds = 0.0;
  double sim_seconds_per_second = 0.0;
  // Slots satisfied from the journal without running anything.
  int replayed = 0;
  // Retry attempts across all jobs (beyond each job's first attempt).
  std::uint64_t retries = 0;
  // True when a journal file existed but matched a different grid.
  bool journal_mismatch = false;
  std::vector<QuarantineEntry> quarantined;
  // Where the quarantine report was written ("" when not requested).
  std::string quarantine_path;

  int executed() const { return jobs - replayed; }
};

class SweepRunner {
 public:
  // Throws std::invalid_argument when options.campaign.max_retries lies
  // outside [0, CampaignOptions::kMaxRetries].
  explicit SweepRunner(SweepOptions options = {});

  // Runs (or resumes) every config as one job; result i corresponds to
  // configs[i] regardless of which worker executed it or in what order jobs
  // finished.  Quarantined slots come back with ok() == false and the error
  // of their final attempt.  Throws only on an unusable journal path or an
  // unwritable quarantine report, never on job failures.
  std::vector<SweepJobResult> Run(const std::vector<ExperimentConfig>& configs);
  std::vector<SweepJobResult> Run(const std::vector<ExperimentConfig>& configs,
                                  const SweepJobHooks& hooks);

  // Metrics for the most recent Run().
  const SweepMetrics& metrics() const { return metrics_; }

  // Resolved worker count (options.threads, or the hardware default).
  int threads() const;

 private:
  SweepOptions options_;
  SweepMetrics metrics_;
};

// Convenience wrapper: runs the grid and unwraps the results, rethrowing the
// first job error as std::runtime_error (naming the quarantine report when
// one was written).  For benches whose configs are known good, this keeps
// call sites as simple as the old serial loops.
std::vector<ExperimentResult> RunSweep(const std::vector<ExperimentConfig>& configs,
                                       const SweepOptions& options = {});

// Registers the shared sweep flags ("--threads", "--progress",
// "--trace-out", "--metrics-out", "--faults", "--resume", "--job-timeout",
// "--max-retries", "--quarantine-out") on `flags`, writing into *options.
// Each bench calls this, adds its own flags, and parses the whole argv with
// one strict FlagSet so duplicates and typos fail loudly.
class FlagSet;
void RegisterSweepFlags(FlagSet& flags, SweepOptions* options);

// Renders the quarantine report ({"campaign": ..., "quarantined": [...]})
// used by --quarantine-out; exposed for tests.
std::string RenderQuarantineJson(std::uint64_t grid_fingerprint, int jobs,
                                 const std::vector<QuarantineEntry>& entries);

}  // namespace dcs

#endif  // SRC_EXP_SWEEP_H_
