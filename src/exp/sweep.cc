#include "src/exp/sweep.h"

#include "src/exp/atomic_io.h"
#include "src/exp/flags.h"
#include "src/exp/journal.h"
#include "src/obs/metrics.h"
#include "src/sim/arena.h"
#include "src/sim/simulator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace dcs {
namespace {

// First retry delay; doubles per retry (the Kernel transition-retry shape).
constexpr double kRetryBackoffMs = 25.0;

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string FingerprintHex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

void Note(const std::string& message) {
  std::fprintf(stderr, "[campaign] %s\n", message.c_str());
}

// One job: up to max_retries + 1 attempts, each on the worker's arena and,
// under --job-timeout, with a watchdog thread holding the cancel token.
SweepJobResult RunJobWithWatchdog(const ExperimentConfig& config, int index,
                                  const SweepJobHooks& hooks, const CampaignOptions& campaign,
                                  std::uint32_t* attempts) {
  const int max_attempts = campaign.max_retries + 1;
  SweepJobResult slot;

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    *attempts = static_cast<std::uint32_t>(attempt) + 1;
    if (attempt > 0) {
      // Bounded exponential backoff before each retry — the same 2^k shape
      // as Kernel::RetryTransition, in wall milliseconds instead of quanta.
      const double backoff_ms = kRetryBackoffMs * static_cast<double>(1 << (attempt - 1));
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff_ms));
    }

    std::atomic<bool> cancel{false};
    std::mutex mutex;
    std::condition_variable cv;
    bool finished = false;
    std::thread watchdog;
    ExperimentConfig job = config;
    if (campaign.job_timeout > 0.0) {
      job.cancel = &cancel;
      watchdog = std::thread([&] {
        std::unique_lock<std::mutex> lock(mutex);
        const auto done = [&] { return finished; };
        // wait_for converts the budget to the clock's int64 ticks, so one
        // past the clock's range (about 9.2e9 s from now) would overflow
        // into a deadline in the past.  Half the range left still lies
        // centuries out: saturate there and wait without a deadline.
        using Clock = std::chrono::steady_clock;
        const auto now = Clock::now();
        const double room_s = std::chrono::duration<double>(Clock::time_point::max() - now).count();
        if (campaign.job_timeout >= room_s / 2) {
          cv.wait(lock, done);
        } else if (!cv.wait_until(lock,
                                  now + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(campaign.job_timeout)),
                                  done)) {
          cancel.store(true, std::memory_order_relaxed);
        }
      });
    }

    // Worker-local arena, reused across every job and retry this thread
    // runs, and across Run() calls on the calling thread: block allocation
    // happens on the first job, after which the per-job simulation state
    // (event queue, sched log, power tape, DAQ samples) recycles the same
    // memory.  Reset before the run, not after, so a thrown attempt — whose
    // arena-bound state has already unwound — still recycles its blocks.
    static thread_local Arena arena;
    arena.Reset();
    job.arena = &arena;

    bool permanent = false;
    slot = SweepJobResult{};
    try {
      if (hooks.execute) {
        slot = hooks.execute(job, index);
      } else {
        slot.result = RunExperiment(job);
      }
    } catch (const CancelledError& e) {
      slot.error = "watchdog timeout after " + std::to_string(campaign.job_timeout) +
                   "s: " + e.what();
    } catch (const std::invalid_argument& e) {
      // A config the harness rejects fails the same way every time; retrying
      // it only burns wall clock.
      slot.error = e.what();
      permanent = true;
    } catch (const std::exception& e) {
      slot.error = e.what();
    } catch (...) {
      slot.error = "unknown exception";
    }
    if (slot.error.empty() && !slot.result.has_value()) {
      slot.error = "job produced no result";
    }

    if (watchdog.joinable()) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        finished = true;
      }
      cv.notify_all();
      watchdog.join();
    }

    if (slot.ok() || permanent) {
      break;
    }
  }
  return slot;
}

// Opens the --resume journal: replays the records matching this grid into
// `results` (marking their slots in `replayed`) and returns a writer
// positioned after the last valid frame.
std::unique_ptr<JournalWriter> OpenJournal(const std::string& path,
                                           const std::vector<ExperimentConfig>& configs,
                                           std::uint64_t grid_fp,
                                           std::vector<SweepJobResult>* results,
                                           std::vector<char>* replayed,
                                           std::vector<std::uint32_t>* attempts,
                                           SweepMetrics* metrics) {
  const JournalReadResult prior = ReadJournal(path);
  for (const std::string& violation : prior.violations) {
    Note("journal '" + path + "': " + violation);
  }
  if (prior.truncated) {
    Note("journal '" + path + "' has a torn tail (killed mid-append); "
         "dropping it and resuming from the last complete record");
  }
  std::string io_error;
  if (!prior.readable) {
    std::unique_ptr<JournalWriter> journal = JournalWriter::Create(path, &io_error);
    if (journal == nullptr) {
      throw std::runtime_error("cannot " + io_error);
    }
    return journal;
  }

  const std::uint32_t job_count = static_cast<std::uint32_t>(configs.size());
  const std::vector<const JournalRecord*> records = prior.MatchingRecords(grid_fp, job_count);
  for (const JournalRecord* record : records) {
    const std::size_t slot = record->slot;
    if ((*replayed)[slot] != 0 ||
        ConfigFingerprint(configs[slot]) != record->config_fingerprint) {
      continue;
    }
    if (record->ok) {
      (*results)[slot].result = record->result;
    } else {
      (*results)[slot].error = record->error;
    }
    (*replayed)[slot] = 1;
    (*attempts)[slot] = record->attempts;
    ++metrics->replayed;
  }
  if (!records.empty()) {
    Note("resuming campaign " + FingerprintHex(grid_fp) + ": " +
         std::to_string(metrics->replayed) + "/" + std::to_string(job_count) +
         " jobs replayed from '" + path + "'");
  } else if (!prior.segments.empty()) {
    metrics->journal_mismatch = true;
    Note("journal '" + path + "' matches no segment of campaign " + FingerprintHex(grid_fp) +
         " (different grid?); running fresh");
  }
  std::unique_ptr<JournalWriter> journal =
      JournalWriter::Append(path, prior.valid_bytes, &io_error);
  if (journal == nullptr) {
    throw std::runtime_error("cannot append to " + io_error);
  }
  return journal;
}

}  // namespace

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {
  const int retries = options_.campaign.max_retries;
  if (retries < 0 || retries > CampaignOptions::kMaxRetries) {
    throw std::invalid_argument("max_retries must lie in [0, " +
                                std::to_string(CampaignOptions::kMaxRetries) + "], got " +
                                std::to_string(retries));
  }
}

int SweepRunner::threads() const {
  return options_.threads > 0 ? options_.threads : HardwareThreads();
}

std::vector<SweepJobResult> SweepRunner::Run(const std::vector<ExperimentConfig>& configs) {
  return Run(configs, SweepJobHooks{});
}

std::vector<SweepJobResult> SweepRunner::Run(const std::vector<ExperimentConfig>& configs,
                                             const SweepJobHooks& hooks) {
  const CampaignOptions& campaign = options_.campaign;
  const int job_count = static_cast<int>(configs.size());
  std::vector<SweepJobResult> results(configs.size());
  // Reset up front so an empty grid never reports the previous call's
  // wall-clock or failure counts (regression-tested).
  metrics_ = SweepMetrics{};
  metrics_.jobs = job_count;
  metrics_.threads = std::min(threads(), std::max(job_count, 1));
  if (job_count == 0) {
    return results;
  }

  const auto wall_begin = std::chrono::steady_clock::now();
  const std::string quarantine_path = campaign.QuarantinePath();
  // An ObsCapture (full power tape + scheduler log) is deliberately not
  // journaled; a grid that wants captures runs unjournaled.
  bool journaling = !campaign.resume.empty();
  if (journaling && std::any_of(configs.begin(), configs.end(),
                                [](const ExperimentConfig& c) { return c.capture_obs; })) {
    journaling = false;
    Note("grid requests capture_obs; journaling to '" + campaign.resume + "' disabled");
  }
  const std::uint64_t grid_fp =
      journaling || !quarantine_path.empty() ? GridFingerprint(configs) : 0;

  // 1. Replay: slots the journal already holds are never claimed below.
  std::vector<char> replayed(configs.size(), 0);
  std::vector<std::uint32_t> attempts(configs.size(), 0);
  std::unique_ptr<JournalWriter> journal;
  if (journaling) {
    journal = OpenJournal(campaign.resume, configs, grid_fp, &results, &replayed, &attempts,
                          &metrics_);
    if (metrics_.replayed < job_count) {
      JournalHeader header;
      header.grid_fingerprint = grid_fp;
      header.jobs = static_cast<std::uint32_t>(job_count);
      header.label = configs.front().app + " x" + std::to_string(job_count);
      std::string io_error;
      if (!journal->AppendHeader(header, &io_error)) {
        throw std::runtime_error("cannot " + io_error);
      }
    }
  }

  // 2-4. Workers claim the next unstarted slot; the slot a job writes is
  // fixed by its index, so the schedule (who ran what, in which order) never
  // shows in the output.  Journal appends, on_result and progress share one
  // mutex.
  std::atomic<int> next_job{0};
  std::mutex mutex;
  int done = metrics_.replayed;
  bool journal_failed = false;

  auto finish_slot = [&](int i) {
    const SweepJobResult& slot = results[static_cast<std::size_t>(i)];
    JournalRecord record;
    if (journal != nullptr) {
      record.slot = static_cast<std::uint32_t>(i);
      record.config_fingerprint = ConfigFingerprint(configs[static_cast<std::size_t>(i)]);
      record.ok = slot.ok();
      record.quarantined = !slot.ok();
      record.attempts = attempts[static_cast<std::size_t>(i)];
      record.error = slot.error;
      if (slot.ok()) {
        record.result = *slot.result;
      }
    }
    const std::lock_guard<std::mutex> lock(mutex);
    if (journal != nullptr && !journal_failed) {
      std::string io_error;
      if (!journal->AppendRecord(record, &io_error)) {
        // Persistence degrades, the sweep itself keeps running: losing the
        // checkpoint must never lose the computation.
        journal_failed = true;
        Note("cannot " + io_error + "; continuing without checkpointing");
      }
    }
    if (hooks.on_result) {
      hooks.on_result(i, slot);
    }
    ++done;
    if (options_.progress) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_begin).count();
      std::fprintf(stderr, "\r[sweep] %d/%d jobs, %.1fs elapsed", done, job_count, elapsed);
      if (done == job_count) {
        std::fputc('\n', stderr);
      }
      std::fflush(stderr);
    }
  };

  auto worker = [&] {
    for (;;) {
      const int i = next_job.fetch_add(1, std::memory_order_relaxed);
      if (i >= job_count) {
        return;
      }
      const std::size_t slot = static_cast<std::size_t>(i);
      if (replayed[slot] != 0) {
        continue;
      }
      results[slot] = RunJobWithWatchdog(configs[slot], i, hooks, campaign, &attempts[slot]);
      finish_slot(i);
    }
  };

  const int workers = metrics_.threads;
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

  metrics_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_begin).count();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepJobResult& r = results[i];
    if (replayed[i] == 0) {
      // Each slot was written by exactly one worker, so the retry count is
      // summed after the join instead of through a shared counter.
      metrics_.retries += attempts[i] > 1 ? attempts[i] - 1 : 0;
      if (r.ok()) {
        metrics_.simulated_seconds += r.result->duration.ToSeconds();
      }
    }
    if (r.ok()) {
      continue;
    }
    ++metrics_.failed;
    QuarantineEntry entry;
    entry.slot = static_cast<int>(i);
    entry.app = configs[i].app;
    entry.governor = configs[i].governor;
    entry.seed = configs[i].seed;
    entry.config_fingerprint = ConfigFingerprint(configs[i]);
    entry.attempts = static_cast<int>(attempts[i]);
    entry.error = r.error;
    metrics_.quarantined.push_back(std::move(entry));
  }
  if (metrics_.wall_seconds > 0.0) {
    metrics_.sim_seconds_per_second = metrics_.simulated_seconds / metrics_.wall_seconds;
  }
  if (options_.progress) {
    std::fprintf(stderr,
                 "[sweep] %d jobs (%d failed) on %d threads in %.2fs — %.1f simulated s/s\n",
                 metrics_.jobs, metrics_.failed, metrics_.threads, metrics_.wall_seconds,
                 metrics_.sim_seconds_per_second);
  }

  // 5. Quarantine report.
  if (!quarantine_path.empty()) {
    metrics_.quarantine_path = quarantine_path;
    std::string io_error;
    if (!AtomicWriteFile(quarantine_path,
                         RenderQuarantineJson(grid_fp, job_count, metrics_.quarantined),
                         &io_error)) {
      throw std::runtime_error("cannot write quarantine report: " + io_error);
    }
    if (!metrics_.quarantined.empty()) {
      Note(std::to_string(metrics_.quarantined.size()) + " config(s) quarantined; see " +
           quarantine_path);
    }
  }
  return results;
}

std::vector<ExperimentResult> RunSweep(const std::vector<ExperimentConfig>& configs,
                                       const SweepOptions& options) {
  SweepRunner runner(options);
  std::vector<SweepJobResult> jobs = runner.Run(configs);
  const std::string& quarantine_path = runner.metrics().quarantine_path;
  std::vector<ExperimentResult> results;
  results.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].ok()) {
      throw std::runtime_error(
          "sweep job " + std::to_string(i) + " failed: " + jobs[i].error +
          (quarantine_path.empty() ? "" : " (quarantine report: " + quarantine_path + ")"));
    }
    results.push_back(std::move(*jobs[i].result));
  }
  return results;
}

void RegisterSweepFlags(FlagSet& flags, SweepOptions* options) {
  flags.Int("threads", &options->threads);
  flags.Switch("progress", &options->progress);
  flags.String("trace-out", &options->trace_out);
  flags.String("metrics-out", &options->metrics_out);
  flags.String("faults", &options->faults);
  flags.String("resume", &options->campaign.resume);
  flags.Double("job-timeout", &options->campaign.job_timeout);
  flags.Int("max-retries", &options->campaign.max_retries, 0, CampaignOptions::kMaxRetries);
  flags.String("quarantine-out", &options->campaign.quarantine_out);
}

std::string RenderQuarantineJson(std::uint64_t grid_fingerprint, int jobs,
                                 const std::vector<QuarantineEntry>& entries) {
  std::ostringstream os;
  os << "{\"campaign\":\"" << FingerprintHex(grid_fingerprint) << "\",\"jobs\":" << jobs
     << ",\"quarantined\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const QuarantineEntry& e = entries[i];
    os << (i == 0 ? "" : ",") << "{\"slot\":" << e.slot << ",\"app\":\""
       << JsonEscape(e.app) << "\",\"governor\":\"" << JsonEscape(e.governor)
       << "\",\"seed\":" << e.seed << ",\"fingerprint\":\""
       << FingerprintHex(e.config_fingerprint) << "\",\"attempts\":" << e.attempts
       << ",\"error\":\"" << JsonEscape(e.error) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace dcs
