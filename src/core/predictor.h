// Utilization predictors — the "prediction" half of an interval scheduler.
//
// Weiser et al. split interval scheduling into *prediction* (estimate the
// next interval's utilization from past intervals) and *speed-setting*
// (choose a clock step given the prediction).  This file implements the
// predictors the paper evaluates:
//
//   * PAST    — the next interval will look exactly like the last one
//               (equivalently AVG_0);
//   * AVG_N   — exponential moving average with decay N:
//                   W_t = (N * W_{t-1} + U_{t-1}) / (N + 1)
//               (paper section 2.2; section 5.3 shows it cannot settle);
//   * sliding window — plain mean of the last `window` intervals (the paper
//               simulated this too and found it "would perform no better").

#ifndef SRC_CORE_PREDICTOR_H_
#define SRC_CORE_PREDICTOR_H_

#include <memory>
#include <string>

#include "src/sim/ring.h"
#include "src/sim/snapshot.h"

namespace dcs {

class UtilizationPredictor {
 public:
  virtual ~UtilizationPredictor() = default;

  // Short name for report tables, e.g. "PAST", "AVG9", "WIN10".
  virtual const std::string& Name() const = 0;

  // Feeds the utilization of the interval that just ended; returns the
  // predicted ("weighted") utilization for the next interval, in [0, 1].
  virtual double Update(double utilization) = 0;

  // Last prediction without feeding a new sample (0 before any Update).
  virtual double Current() const = 0;

  // Clears all history.
  virtual void Reset() = 0;

  // Device-snapshot image (src/sim/snapshot.h): mutable history only —
  // windows/decay constants are ctor-owned and must match the image.
  virtual void Snapshot(SnapshotIo& io) { (void)io; }
};

// PAST: prediction == previous interval's utilization.
class PastPredictor final : public UtilizationPredictor {
 public:
  PastPredictor();
  const std::string& Name() const override { return name_; }
  double Update(double utilization) override;
  double Current() const override { return last_; }
  void Reset() override { last_ = 0.0; }
  void Snapshot(SnapshotIo& io) override { io(last_); }

 private:
  std::string name_;
  double last_ = 0.0;
};

// AVG_N exponential moving average.  AVG_0 degenerates to PAST.
class AvgNPredictor final : public UtilizationPredictor {
 public:
  explicit AvgNPredictor(int n);
  const std::string& Name() const override { return name_; }
  double Update(double utilization) override;
  double Current() const override { return weighted_; }
  void Reset() override { weighted_ = 0.0; }
  void Snapshot(SnapshotIo& io) override { io(weighted_); }

  int n() const { return n_; }

 private:
  int n_;
  std::string name_;
  double weighted_ = 0.0;
};

// Plain mean of the last `window` utilizations.
class SlidingWindowPredictor final : public UtilizationPredictor {
 public:
  explicit SlidingWindowPredictor(int window);
  const std::string& Name() const override { return name_; }
  double Update(double utilization) override;
  double Current() const override;
  void Reset() override;
  void Snapshot(SnapshotIo& io) override {
    io.Window(samples_, static_cast<std::size_t>(window_));
    io(sum_);
  }

  int window() const { return window_; }

 private:
  int window_;
  std::string name_;
  Ring<double> samples_;
  double sum_ = 0.0;
};

}  // namespace dcs

#endif  // SRC_CORE_PREDICTOR_H_
