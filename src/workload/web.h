// The Web browsing workload.
//
// Models the paper's scenario: "We used a Javabean version of the IceWeb
// browser to view content stored on the Itsy.  We selected a file containing
// a stored article from www.news.com ...  We scrolled down the page, reading
// the full article.  We then went back to the root menu and opened a file
// containing an HTML version of WRL technical report TN-56, which has many
// tables ...  The overall trace was 190 seconds of activity."
//
// The browser task replays an InputTrace of "load" and "scroll" events.
// Each event triggers a compute burst (parse/layout/render) whose size
// scales with the event magnitude; between events the browser is idle
// (reading time).  The Kaffe polling task runs alongside (the app is
// Java-hosted).  Deadlines: each event should complete within its full-speed
// handling time plus a per-kind responsiveness grace.

#ifndef SRC_WORKLOAD_WEB_H_
#define SRC_WORKLOAD_WEB_H_

#include "src/kernel/workload_api.h"
#include "src/workload/deadline_monitor.h"
#include "src/workload/input_trace.h"

namespace dcs {

struct WebConfig {
  // Compute cost of a magnitude-1.0 page load / scroll at 206.4 MHz, ms.
  double load_ms_at_top = 600.0;
  double scroll_ms_at_top = 90.0;
  // Responsiveness grace beyond the full-speed handling time.
  SimTime load_grace = SimTime::Millis(350);
  SimTime scroll_grace = SimTime::Millis(150);
};

// Builds the paper's 190 s browse script (two page loads, scrolling bursts,
// reading gaps) with seeded jitter on the user's timing.
InputTrace MakeWebBrowseTrace(std::uint64_t seed);

class WebWorkload final : public Workload {
 public:
  WebWorkload(InputTrace trace, const WebConfig& config, DeadlineMonitor* deadlines);

  const char* Name() const override { return "iceweb"; }
  Action Next(const WorkloadContext& ctx) override;
  MemoryProfile Profile() const override { return profile_; }

  void Snapshot(SnapshotIo& io) override {
    io.Index(next_event_, trace_.events().size());
    io(handling_, origin_, primed_, event_deadline_);
  }

 private:
  InputTrace trace_;
  WebConfig config_;
  DeadlineMonitor* deadlines_;
  DeadlineMonitor::Stream stream_;  // "interactive"
  MemoryProfile profile_;
  std::size_t next_event_ = 0;
  bool handling_ = false;
  SimTime origin_;
  bool primed_ = false;
  // Deadline bookkeeping for the event being handled.
  SimTime event_deadline_;
};

}  // namespace dcs

#endif  // SRC_WORKLOAD_WEB_H_
