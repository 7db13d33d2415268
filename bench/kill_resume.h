// Kill/resume soak shared by campaign_soak and fleet_scale --soak.
//
// Proves a journal end to end.  The calling binary is re-run as a child
// (`--child --resume=JOURNAL --threads=N`, stdout captured to a file):
//
//   1. reference: one uninterrupted child over ref.journal -> ref<ext>;
//   2. victims:   `kills` children over soak.journal, each SIGKILLed after
//                 `kill_after_ms` of wall clock;
//   3. final:     one more resume over soak.journal, run to completion
//                 -> soak<ext>.
//
// The soak passes when the final child exits 0 and soak<ext> equals
// ref<ext> byte for byte.  Both journals and both outputs (and the
// journals' quarantine reports) are deleted before the reference run, so a
// rerun in the same workdir starts from nothing; what the run leaves is
// kept for CI to archive.

#ifndef BENCH_KILL_RESUME_H_
#define BENCH_KILL_RESUME_H_

#include <string>

namespace dcs {

// The soak's flags: --workdir, --kills, --kill-after-ms, --threads.
struct KillResumeOptions {
  std::string workdir;  // empty: a fresh directory under /tmp
  int kills = 2;
  int kill_after_ms = 150;
  int threads = 2;
};

// Runs the soak from the binary `argv0`; returns the process exit code.
// `tag` prefixes the log lines and names the /tmp directory; `output_ext`
// is the captured stdout's extension, e.g. ".json".
int RunKillResumeSoak(const char* argv0, const std::string& tag, const std::string& output_ext,
                      const KillResumeOptions& soak);

}  // namespace dcs

#endif  // BENCH_KILL_RESUME_H_
