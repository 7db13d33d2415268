// The remaining policies of Govil, Chan & Wasserman, "Comparing Algorithms
// for Dynamic Speed-Setting of a Low-Power CPU" (MobiCom '95) — the study
// the paper under reproduction cites as having "considered a large number of
// algorithms" on Weiser's traces.  Implemented here as *online* policies on
// the Itsy's discrete clock steps so they can be measured on the same
// applications:
//
//   * FLAT       — aim the CPU straight at a target utilization: pick the
//                  slowest step whose capacity keeps predicted utilization
//                  at the target (Govil's "Flat" smoothing).
//   * LONG_SHORT — predict with a 3:1 blend of a short recent window and a
//                  longer history window ("Long-short").
//   * CYCLE      — look for a cycle of length X in the utilization history
//                  and, if the last X quanta match the X before them well,
//                  predict the quantum one cycle back ("Cycle").
//   * PEAK       — expect narrow peaks: on a rising edge predict a fall, on
//                  a falling edge predict a further fall ("Peak").
//
// LONG_SHORT, CYCLE and PEAK are UtilizationPredictors and compose with the
// interval governor's thresholds and speed policies (registry specs
// "LS-...", "CYCLE<len>-...", "PEAK-...").  FLAT has its own speed-setting
// rule and is a ClockPolicy (spec "flat-<target%>").

#ifndef SRC_CORE_GOVIL_POLICIES_H_
#define SRC_CORE_GOVIL_POLICIES_H_

#include <string>

#include "src/core/predictor.h"
#include "src/hw/clock_table.h"
#include "src/kernel/policy.h"

namespace dcs {

// --- FLAT -------------------------------------------------------------------

struct FlatGovernorConfig {
  // Target utilization the clock is aimed at (Govil used smoothing toward a
  // constant; 0.7-0.8 behaves like a deadband-free ondemand).
  double target = 0.75;
  int min_step = ClockTable::MinStep();
  int max_step = ClockTable::MaxStep();
};

class FlatGovernor final : public ClockPolicy {
 public:
  explicit FlatGovernor(const FlatGovernorConfig& config = {});

  const char* Name() const override { return name_.c_str(); }
  std::optional<SpeedRequest> OnQuantum(const UtilizationSample& sample) override;

 private:
  FlatGovernorConfig config_;
  std::string name_;
};

// --- LONG_SHORT ---------------------------------------------------------------

class LongShortPredictor final : public UtilizationPredictor {
 public:
  // Govil's weighting: prediction = (3*short + long) / 4.
  LongShortPredictor(int short_window = 3, int long_window = 12);

  const std::string& Name() const override { return name_; }
  double Update(double utilization) override;
  double Current() const override { return current_; }
  void Reset() override;
  void Snapshot(SnapshotIo& io) override {
    io.Window(history_, static_cast<std::size_t>(long_window_));
    io(current_);
  }

 private:
  int short_window_;
  int long_window_;
  std::string name_;
  Ring<double> history_;
  double current_ = 0.0;
};

// --- CYCLE ----------------------------------------------------------------------

class CyclePredictor final : public UtilizationPredictor {
 public:
  // Looks for a cycle of exactly `cycle_length` quanta; falls back to a
  // sliding average of the last `cycle_length` quanta when the last two
  // periods disagree by more than `tolerance` on average.
  explicit CyclePredictor(int cycle_length = 10, double tolerance = 0.10);

  const std::string& Name() const override { return name_; }
  double Update(double utilization) override;
  double Current() const override { return current_; }
  void Reset() override;

  void Snapshot(SnapshotIo& io) override {
    io.Window(history_, 2 * static_cast<std::size_t>(cycle_length_));
    io(current_, cycle_matched_);
  }

  // True if the last prediction came from a matched cycle (diagnostics).
  bool cycle_matched() const { return cycle_matched_; }

 private:
  int cycle_length_;
  double tolerance_;
  std::string name_;
  // The last 2 * cycle_length samples: all that Update() reads.
  Ring<double> history_;
  double current_ = 0.0;
  bool cycle_matched_ = false;
};

// --- PEAK ----------------------------------------------------------------------

class PeakPredictor final : public UtilizationPredictor {
 public:
  PeakPredictor();

  const std::string& Name() const override { return name_; }
  double Update(double utilization) override;
  double Current() const override { return current_; }
  void Reset() override;
  void Snapshot(SnapshotIo& io) override { io(previous_, current_, primed_); }

 private:
  std::string name_;
  double previous_ = 0.0;
  double current_ = 0.0;
  bool primed_ = false;
};

}  // namespace dcs

#endif  // SRC_CORE_GOVIL_POLICIES_H_
