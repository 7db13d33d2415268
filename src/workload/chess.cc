#include "src/workload/chess.h"

#include <cassert>

#include "src/workload/demand.h"

namespace dcs {

InputTrace MakeChessGameTrace(std::uint64_t seed) {
  Rng rng(seed);
  InputTrace trace;
  double t = 3.0;
  // ~22 user moves over 218 seconds.  Early (book) moves come quickly and
  // the engine replies instantly; mid-game the user thinks longer and the
  // engine searches for a fixed budget.
  for (int move = 0; move < 22 && t < 210.0; ++move) {
    double think;
    double search_budget;
    if (move < 4) {
      think = rng.Uniform(2.0, 5.0);
      search_budget = 0.05;  // book reply
    } else {
      think = rng.Uniform(4.0, 12.0);
      search_budget = rng.Uniform(2.5, 6.5);
    }
    t += think;
    trace.Record(SimTime::FromSecondsF(t), "move", search_budget);
    t += search_budget + 0.3;
  }
  return trace;
}

ChessWorkload::ChessWorkload(InputTrace trace, const ChessConfig& config,
                             DeadlineMonitor* deadlines)
    : trace_(std::move(trace)), config_(config), deadlines_(deadlines) {
  if (deadlines_ != nullptr) {
    stream_ = deadlines_->Intern("interactive");
  }
  // Board evaluation and move generation hit hash tables: moderate memory.
  profile_ = MemoryProfile{15.0, 6.0};
}

Action ChessWorkload::Next(const WorkloadContext& ctx) {
  if (!primed_) {
    primed_ = true;
    origin_ = ctx.now;
  }
  switch (state_) {
    case State::kWaitMove: {
      if (next_event_ >= trace_.events().size()) {
        return Action::Exit();
      }
      const SimTime at = origin_ + trace_.events()[next_event_].at;
      if (ctx.now < at) {
        return Action::SleepUntil(at, /*jiffy=*/false);
      }
      // User entered a move: UI burst, deadline-checked.
      state_ = State::kUserUi;
      ui_deadline_ = at + SimTime::FromSecondsF(config_.ui_ms_at_top * 1e-3) +
                     config_.ui_grace;
      return Action::ComputeBy(BaseCyclesForMsAtTop(config_.ui_ms_at_top, profile_),
                               ui_deadline_);
    }

    case State::kUserUi: {
      if (deadlines_ != nullptr) {
        deadlines_->Report(stream_, ui_deadline_, ctx.now);
      }
      // Crafty searches for its time budget (wall-clock bounded: a slower
      // clock explores fewer nodes but takes the same time).
      const double budget = trace_.events()[next_event_].magnitude;
      state_ = State::kSearch;
      return Action::SpinUntil(ctx.now + SimTime::FromSecondsF(budget));
    }

    case State::kSearch:
      // Engine plays its move: another UI burst (not deadline-checked; the
      // user is not waiting on a clock).
      state_ = State::kEngineUi;
      return Action::Compute(BaseCyclesForMsAtTop(config_.ui_ms_at_top * 0.6, profile_));

    case State::kEngineUi:
      ++next_event_;
      ++ply_;
      state_ = State::kWaitMove;
      return Next(ctx);
  }
  assert(false && "unreachable");
  return Action::Exit();
}

}  // namespace dcs
