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

  // Deep copy, for sweeps that reuse a configured prototype.
  virtual std::unique_ptr<UtilizationPredictor> Clone() const = 0;

  // Device-snapshot support (src/sim/snapshot.h): mutable history only —
  // windows/decay constants are ctor-owned and must match the image.
  virtual void SaveState(SnapshotWriter* w) const { (void)w; }
  virtual void LoadState(SnapshotReader* r) { (void)r; }
};

// Serializes a window of doubles (predictor history: a Ring or a deque).
// Loads clear, then push.  A Ring keeps its storage through that, so device
// cycling with a same-shape window does not allocate in steady state;
// libstdc++'s deque frees its chunks on clear() and reallocates them.
template <typename Container>
void SaveSampleWindow(SnapshotWriter* w, const Container& c) {
  w->U64(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    w->F64(c[i]);
  }
}

template <typename Container>
void LoadSampleWindow(SnapshotReader* r, Container* c) {
  const std::size_t n = r->Count(sizeof(double));
  c->clear();
  for (std::size_t i = 0; i < n; ++i) {
    c->push_back(r->F64());
  }
}

// PAST: prediction == previous interval's utilization.
class PastPredictor final : public UtilizationPredictor {
 public:
  PastPredictor();
  const std::string& Name() const override { return name_; }
  double Update(double utilization) override;
  double Current() const override { return last_; }
  void Reset() override { last_ = 0.0; }
  std::unique_ptr<UtilizationPredictor> Clone() const override;
  void SaveState(SnapshotWriter* w) const override { w->F64(last_); }
  void LoadState(SnapshotReader* r) override { last_ = r->F64(); }

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
  std::unique_ptr<UtilizationPredictor> Clone() const override;
  void SaveState(SnapshotWriter* w) const override { w->F64(weighted_); }
  void LoadState(SnapshotReader* r) override { weighted_ = r->F64(); }

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
  std::unique_ptr<UtilizationPredictor> Clone() const override;
  void SaveState(SnapshotWriter* w) const override {
    SaveSampleWindow(w, samples_);
    w->F64(sum_);
  }
  void LoadState(SnapshotReader* r) override {
    LoadSampleWindow(r, &samples_);
    sum_ = r->F64();
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
