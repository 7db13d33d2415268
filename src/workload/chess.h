// The Chess workload.
//
// "We used a Java interface to version 16.10 of the Crafty chess playing
// program.  Crafty ... plays for specific periods of time in later stages of
// the games and plays the best move available when time expires.  The 218
// second trace includes a complete game of Crafty playing against a novice
// player (who lost, badly)."
//
// Key behavioural property (paper Figure 4c): utilization is near zero while
// the user thinks and pegged at 100% while Crafty searches.  Because Crafty
// is *time budgeted*, a slower clock does not stretch the busy period — it
// just explores fewer nodes — so we model searches as SpinUntil (wall-clock
// busy) rather than fixed work.  Opening-book moves are nearly free; later
// moves search for seconds.
//
// Deadlines: only the UI bursts (move entry/animation) are
// latency-sensitive; searches have no deadline by construction.

#ifndef SRC_WORKLOAD_CHESS_H_
#define SRC_WORKLOAD_CHESS_H_

#include "src/kernel/workload_api.h"
#include "src/workload/deadline_monitor.h"
#include "src/workload/input_trace.h"

namespace dcs {

struct ChessConfig {
  // UI burst for entering/animating a move, at 206.4 MHz.
  double ui_ms_at_top = 80.0;
  SimTime ui_grace = SimTime::Millis(200);
  // Number of opening-book plies (instant engine replies).
  int book_plies = 8;
};

// Builds the 218 s game script: alternating user think times and engine
// search budgets ("move" events carry the think time; magnitude = the
// engine's search budget in seconds for its reply).
InputTrace MakeChessGameTrace(std::uint64_t seed);

class ChessWorkload final : public Workload {
 public:
  ChessWorkload(InputTrace trace, const ChessConfig& config, DeadlineMonitor* deadlines);

  const char* Name() const override { return "crafty"; }
  Action Next(const WorkloadContext& ctx) override;
  MemoryProfile Profile() const override { return profile_; }

  void Snapshot(SnapshotIo& io) override {
    io.Index(next_event_, trace_.events().size());
    io.Enum(state_, State::kEngineUi);
    // Every state but kWaitMove works on the move at next_event_.
    if (!io.Check(state_ == State::kWaitMove || next_event_ < trace_.events().size())) {
      state_ = State::kWaitMove;
    }
    io(origin_, primed_, ui_deadline_);
    io.As<std::int64_t>(ply_);
  }

 private:
  enum class State { kWaitMove, kUserUi, kSearch, kEngineUi };

  InputTrace trace_;
  ChessConfig config_;
  DeadlineMonitor* deadlines_;
  DeadlineMonitor::Stream stream_;  // "interactive"
  MemoryProfile profile_;
  std::size_t next_event_ = 0;
  State state_ = State::kWaitMove;
  SimTime origin_;
  bool primed_ = false;
  SimTime ui_deadline_;
  int ply_ = 0;
};

}  // namespace dcs

#endif  // SRC_WORKLOAD_CHESS_H_
