// Application bundles: named, ready-to-run task sets matching the paper's
// four benchmark applications.
//
// A bundle owns the workload objects (transferred into the kernel by the
// experiment runner), knows its natural duration, and whether the app is
// Java-hosted (which adds the Kaffe 30 ms polling task).

#ifndef SRC_WORKLOAD_APPS_H_
#define SRC_WORKLOAD_APPS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/kernel/workload_api.h"
#include "src/workload/deadline_monitor.h"
#include "src/workload/mpeg.h"

namespace dcs {

struct AppBundle {
  std::string name;
  std::vector<std::unique_ptr<Workload>> tasks;
  // How long the scenario runs (experiments simulate a little past this).
  SimTime duration;
};

// 60 s of 15 fps MPEG-1 video + audio (runs directly on Linux, no JVM).
AppBundle MakeMpegApp(DeadlineMonitor* deadlines, std::uint64_t seed);

// MPEG with a custom configuration (ablation studies: pacing mode, memory
// profile, clip length).
AppBundle MakeMpegApp(const MpegConfig& config, DeadlineMonitor* deadlines,
                      std::uint64_t seed);

// 190 s IceWeb browse (Java-hosted: includes the polling task).
AppBundle MakeWebApp(DeadlineMonitor* deadlines, std::uint64_t seed);

// 218 s Crafty game (Java-hosted).
AppBundle MakeChessApp(DeadlineMonitor* deadlines, std::uint64_t seed);

// 70 s mpedit + DECtalk session (Java-hosted).
AppBundle MakeTalkingEditorApp(DeadlineMonitor* deadlines, std::uint64_t seed);

// Factory by name: "mpeg" | "web" | "chess" | "editor" | "server" (the
// open-loop request server, src/workload/server.h).  Throws
// std::invalid_argument for unknown names.
AppBundle MakeApp(const std::string& name, DeadlineMonitor* deadlines, std::uint64_t seed);

}  // namespace dcs

#endif  // SRC_WORKLOAD_APPS_H_
