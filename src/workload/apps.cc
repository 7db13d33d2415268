#include "src/workload/apps.h"

#include <stdexcept>

#include "src/workload/chess.h"
#include "src/workload/java_vm.h"
#include "src/workload/mpeg.h"
#include "src/workload/server.h"
#include "src/workload/talking_editor.h"
#include "src/workload/web.h"

namespace dcs {

AppBundle MakeMpegApp(DeadlineMonitor* deadlines, std::uint64_t seed) {
  // Frame-cost jitter comes from the per-task RNG the kernel forks; the
  // scenario itself is fixed (no user input to replay).
  return MakeMpegApp(MpegConfig{}, deadlines, seed);
}

AppBundle MakeMpegApp(const MpegConfig& config, DeadlineMonitor* deadlines,
                      std::uint64_t /*seed*/) {
  AppBundle bundle;
  bundle.name = "mpeg";
  bundle.duration = config.duration;
  bundle.tasks.push_back(std::make_unique<MpegVideoWorkload>(config, deadlines));
  bundle.tasks.push_back(std::make_unique<MpegAudioWorkload>(config, deadlines));
  return bundle;
}

AppBundle MakeWebApp(DeadlineMonitor* deadlines, std::uint64_t seed) {
  AppBundle bundle;
  bundle.name = "web";
  InputTrace trace = MakeWebBrowseTrace(seed);
  bundle.duration = trace.Duration() + SimTime::Seconds(5);
  bundle.tasks.push_back(
      std::make_unique<WebWorkload>(std::move(trace), WebConfig{}, deadlines));
  bundle.tasks.push_back(std::make_unique<JavaPollWorkload>());
  return bundle;
}

AppBundle MakeChessApp(DeadlineMonitor* deadlines, std::uint64_t seed) {
  AppBundle bundle;
  bundle.name = "chess";
  InputTrace trace = MakeChessGameTrace(seed);
  bundle.duration = trace.Duration() + SimTime::Seconds(8);
  bundle.tasks.push_back(
      std::make_unique<ChessWorkload>(std::move(trace), ChessConfig{}, deadlines));
  bundle.tasks.push_back(std::make_unique<JavaPollWorkload>());
  return bundle;
}

AppBundle MakeTalkingEditorApp(DeadlineMonitor* deadlines, std::uint64_t seed) {
  AppBundle bundle;
  bundle.name = "editor";
  InputTrace trace = MakeTalkingEditorTrace(seed);
  bundle.duration = trace.Duration() + SimTime::Seconds(25);
  bundle.tasks.push_back(std::make_unique<TalkingEditorWorkload>(
      std::move(trace), TalkingEditorConfig{}, deadlines));
  bundle.tasks.push_back(std::make_unique<JavaPollWorkload>());
  return bundle;
}

AppBundle MakeApp(const std::string& name, DeadlineMonitor* deadlines, std::uint64_t seed) {
  if (name == "mpeg") {
    return MakeMpegApp(deadlines, seed);
  }
  if (name == "web") {
    return MakeWebApp(deadlines, seed);
  }
  if (name == "chess") {
    return MakeChessApp(deadlines, seed);
  }
  if (name == "editor") {
    return MakeTalkingEditorApp(deadlines, seed);
  }
  if (name == "server") {
    return MakeServerApp(deadlines, seed);
  }
  // An empty bundle here would run a perfectly plausible-looking idle
  // experiment; fail loudly instead so a typo can't produce quiet nonsense.
  throw std::invalid_argument("unknown app '" + name +
                              "' (expected mpeg|web|chess|editor|server)");
}

}  // namespace dcs
