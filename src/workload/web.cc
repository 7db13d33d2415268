#include "src/workload/web.h"

#include <cassert>

#include "src/workload/demand.h"

namespace dcs {

InputTrace MakeWebBrowseTrace(std::uint64_t seed) {
  Rng rng(seed);
  InputTrace trace;
  double t = 2.0 + rng.Uniform(0.0, 0.5);

  // Open the news.com article about the Itsy.
  trace.Record(SimTime::FromSecondsF(t), "load", 1.0);
  // Read it, scrolling down the full article.
  for (int i = 0; i < 12; ++i) {
    t += rng.Uniform(7.0, 14.0);
    trace.Record(SimTime::FromSecondsF(t), "scroll", rng.Uniform(0.8, 1.3));
  }

  // Back to the root menu (a light page).
  t += rng.Uniform(4.0, 8.0);
  trace.Record(SimTime::FromSecondsF(t), "load", 0.35);

  // Open the TN-56 tech report: "many tables describing characteristics of
  // power usage" — a heavy layout job.
  t += rng.Uniform(2.0, 4.0);
  trace.Record(SimTime::FromSecondsF(t), "load", 1.7);
  // Skim the tables.
  for (int i = 0; i < 6 && t < 182.0; ++i) {
    t += rng.Uniform(5.0, 11.0);
    trace.Record(SimTime::FromSecondsF(t), "scroll", rng.Uniform(0.9, 1.4));
  }
  return trace;
}

WebWorkload::WebWorkload(InputTrace trace, const WebConfig& config,
                         DeadlineMonitor* deadlines)
    : trace_(std::move(trace)), config_(config), deadlines_(deadlines) {
  if (deadlines_ != nullptr) {
    stream_ = deadlines_->Intern("interactive");
  }
  // Layout over large DOM/tables: the most memory-heavy of the workloads.
  profile_ = MemoryProfile{25.0, 10.0};
}

Action WebWorkload::Next(const WorkloadContext& ctx) {
  if (!primed_) {
    primed_ = true;
    origin_ = ctx.now;
  }
  if (handling_) {
    // The burst for the current event just completed.
    handling_ = false;
    if (deadlines_ != nullptr) {
      deadlines_->Report(stream_, event_deadline_, ctx.now);
    }
    ++next_event_;
  }
  if (next_event_ >= trace_.events().size()) {
    return Action::Exit();
  }
  const InputEvent& event = trace_.events()[next_event_];
  const SimTime event_at = origin_ + event.at;
  if (ctx.now < event_at) {
    // Reading / thinking: wait for the user's next input.
    return Action::SleepUntil(event_at, /*jiffy=*/false);
  }
  // Handle the event.  A few percent of cost jitter models the run-to-run
  // variation real runs see from other threads and system daemons.
  const bool is_load = event.kind == "load";
  const double jitter =
      ctx.rng != nullptr ? ctx.rng->TruncatedGaussian(1.0, 0.03, 0.9, 1.1) : 1.0;
  const double cost_ms = (is_load ? config_.load_ms_at_top : config_.scroll_ms_at_top) *
                         event.magnitude * jitter;
  const SimTime grace = is_load ? config_.load_grace : config_.scroll_grace;
  event_deadline_ = event_at + SimTime::FromSecondsF(cost_ms * 1e-3) + grace;
  handling_ = true;
  return Action::ComputeBy(BaseCyclesForMsAtTop(cost_ms, profile_), event_deadline_);
}

}  // namespace dcs
