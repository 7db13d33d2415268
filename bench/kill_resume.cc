#include "bench/kill_resume.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>

#include "src/exp/journal.h"

namespace dcs {
namespace {

std::string SelfExe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

// Spawns `exe --child --resume=journal --threads=N` with stdout truncated
// into `stdout_path`.  Returns the child pid, or -1.
pid_t SpawnChild(const std::string& exe, const std::string& journal, int threads,
                 const std::string& stdout_path) {
  const pid_t pid = ::fork();
  if (pid != 0) {
    return pid;
  }
  const int fd = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0) {
    std::perror("soak child: redirect stdout");
    ::_exit(127);
  }
  ::close(fd);
  const std::string resume = "--resume=" + journal;
  const std::string threads_arg = "--threads=" + std::to_string(threads);
  ::execl(exe.c_str(), exe.c_str(), "--child", resume.c_str(), threads_arg.c_str(),
          static_cast<char*>(nullptr));
  std::perror("soak child: exec");
  ::_exit(127);
}

// Waits for `pid`; returns its exit code, or -signal when signalled.
int WaitChild(pid_t pid) {
  if (pid < 0) {
    return -9997;
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    return -9999;
  }
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  if (WIFSIGNALED(status)) {
    return -WTERMSIG(status);
  }
  return -9998;
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return false;
  }
  std::ostringstream os;
  os << is.rdbuf();
  *out = os.str();
  return true;
}

}  // namespace

int RunKillResumeSoak(const char* argv0, const std::string& tag_name,
                      const std::string& output_ext, const KillResumeOptions& soak) {
  const char* tag = tag_name.c_str();
  std::string workdir = soak.workdir;
  if (workdir.empty()) {
    std::string tmpl = "/tmp/" + tag_name + ".XXXXXX";
    const char* made = ::mkdtemp(tmpl.data());
    if (made == nullptr) {
      std::perror("soak: mkdtemp");
      return 1;
    }
    workdir = made;
  }
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  if (ec) {
    std::fprintf(stderr, "[%s] cannot create workdir '%s': %s\n", tag, workdir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const std::string ref_journal = workdir + "/ref.journal";
  const std::string soak_journal = workdir + "/soak.journal";
  const std::string ref_out = workdir + "/ref" + output_ext;
  const std::string soak_out = workdir + "/soak" + output_ext;
  // A journal left by an earlier run would replay it: the victims would
  // find their work done, and no kill would land mid-run.
  for (const std::string& stale : {ref_journal, ref_journal + ".quarantine.json", soak_journal,
                                   soak_journal + ".quarantine.json", ref_out, soak_out}) {
    std::filesystem::remove(stale, ec);
    if (ec) {
      std::fprintf(stderr, "[%s] cannot remove '%s': %s\n", tag, stale.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }
  const std::string exe = SelfExe(argv0);
  std::fprintf(stderr, "[%s] workdir %s, %d kill(s) after %d ms, %d thread(s)\n", tag,
               workdir.c_str(), soak.kills, soak.kill_after_ms, soak.threads);

  // 1. Uninterrupted reference run.
  const int ref_rc = WaitChild(SpawnChild(exe, ref_journal, soak.threads, ref_out));
  if (ref_rc != 0) {
    std::fprintf(stderr, "[%s] FAIL: reference run exited %d\n", tag, ref_rc);
    return 1;
  }

  // 2. Victim runs: kill each mid-run, leaving a (possibly torn) journal
  //    behind for the next round to resume from.
  for (int round = 1; round <= soak.kills; ++round) {
    const pid_t victim = SpawnChild(exe, soak_journal, soak.threads, soak_out);
    std::this_thread::sleep_for(std::chrono::milliseconds(soak.kill_after_ms));
    if (victim > 0) {
      ::kill(victim, SIGKILL);
    }
    const int rc = WaitChild(victim);
    if (rc == 0) {
      // Finished before the kill landed: still a valid (if weaker) test;
      // flag it so a CI log reader knows the timing was off.
      std::fprintf(stderr,
                   "[%s] round %d: finished before the kill; consider lowering "
                   "--kill-after-ms\n",
                   tag, round);
      continue;
    }
    const JournalReadResult journal = ReadJournal(soak_journal);
    std::size_t records = 0;
    for (const JournalSegment& segment : journal.segments) {
      records += segment.records.size();
    }
    const unsigned jobs = journal.segments.empty() ? 0 : journal.segments.back().header.jobs;
    std::fprintf(stderr,
                 "[%s] round %d: killed (status %d); journal holds %zu of %u record(s)%s\n", tag,
                 round, rc, records, jobs, journal.truncated ? " + torn tail" : "");
  }

  // 3. Final resume, run to completion.
  const int final_rc = WaitChild(SpawnChild(exe, soak_journal, soak.threads, soak_out));
  if (final_rc != 0) {
    std::fprintf(stderr, "[%s] FAIL: final resumed run exited %d\n", tag, final_rc);
    return 1;
  }

  // 4. Byte-compare the resumed run's output against the reference.
  std::string ref_bytes;
  std::string soak_bytes;
  if (!ReadFileBytes(ref_out, &ref_bytes) || !ReadFileBytes(soak_out, &soak_bytes)) {
    std::fprintf(stderr, "[%s] FAIL: cannot read captured outputs\n", tag);
    return 1;
  }
  if (ref_bytes != soak_bytes) {
    std::fprintf(stderr,
                 "[%s] FAIL: resumed output differs from reference (%zu vs %zu bytes)\n"
                 "[%s]   reference: %s\n[%s]   resumed:   %s\n",
                 tag, ref_bytes.size(), soak_bytes.size(), tag, ref_out.c_str(), tag,
                 soak_out.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "[%s] PASS: %d kill/resume round(s); resumed output byte-identical to the "
               "uninterrupted reference (%zu bytes)\n",
               tag, soak.kills, ref_bytes.size());
  return 0;
}

}  // namespace dcs
