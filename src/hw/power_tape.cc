#include "src/hw/power_tape.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dcs {

void PowerTape::Set(SimTime now, double watts) {
  assert((segments_.empty() || now >= segments_.back().start) &&
         "PowerTape segments must be time-ordered");
  if (!segments_.empty() && segments_.back().watts == watts) {
    return;
  }
  if (!segments_.empty() && segments_.back().start == now) {
    // Multiple state changes at the same instant collapse to the last one.
    // Only the still-open last segment changes, and prefix_ never includes
    // the open segment's contribution, so the prefix stays valid.
    segments_.back().watts = watts;
    // Collapsing can expose a merge with the (new) previous segment.
    if (segments_.size() >= 2 && segments_[segments_.size() - 2].watts == watts) {
      segments_.pop_back();
      prefix_.pop_back();
    } else if (segments_.size() == 1 && dropped_ > 0) {
      // The previous segment was dropped.  Time never runs backwards, so a
      // lone retained segment started before the last Set and cannot be
      // collapsing; reaching here means the caller rewound time.
      throw std::logic_error("PowerTape: collapse reaches a dropped segment");
    }
    return;
  }
  if (segments_.empty()) {
    origin_ = now;
    prefix_.push_back(0.0);
    segments_.push_back(Segment{now, watts});
    return;
  }
  // Appending closes the previous segment: fold its full contribution into
  // the prefix.  The expression mirrors the energy integration term exactly
  // (same subtraction, same ToSeconds, same multiply, added left-to-right)
  // so prefix-based queries are bitwise-identical to the old full scan.
  const Segment& prev = segments_.back();
  const double prefix = prefix_.back() + prev.watts * (now - prev.start).ToSeconds();
  if (!history_ && segments_.size() == 2) {
    // Shift the older retained segment out by hand: no erase, no growth.
    segments_[0] = segments_[1];
    prefix_[0] = prefix_[1];
    segments_[1] = Segment{now, watts};
    prefix_[1] = prefix;
    ++dropped_;
    return;
  }
  prefix_.push_back(prefix);
  segments_.push_back(Segment{now, watts});
}

void PowerTape::DropHistory() {
  history_ = false;
  if (segments_.size() > 2) {
    const std::size_t drop = segments_.size() - 2;
    segments_.erase(segments_.begin(), segments_.begin() + static_cast<std::ptrdiff_t>(drop));
    prefix_.erase(prefix_.begin(), prefix_.begin() + static_cast<std::ptrdiff_t>(drop));
    dropped_ += drop;
  }
}

double PowerTape::WattsAt(SimTime t) const {
  if (segments_.empty() || t < origin_) {
    return 0.0;
  }
  auto it = std::upper_bound(segments_.begin(), segments_.end(), t,
                             [](SimTime x, const Segment& s) { return x < s.start; });
  if (it == segments_.begin()) {
    throw std::logic_error("PowerTape::WattsAt before the retained segments");
  }
  return std::prev(it)->watts;
}

double PowerTape::EnergyJoules(SimTime begin, SimTime end) const {
  if (segments_.empty() || end <= begin) {
    return 0.0;
  }
  if (begin <= origin_) {
    if (end <= origin_) {
      return 0.0;
    }
    // The window covers every segment from the first: its energy is the
    // prefix up to the segment containing `end` plus that segment's partial
    // tail.  k is the last segment starting strictly before `end`.
    const auto it = std::lower_bound(
        segments_.begin(), segments_.end(), end,
        [](const Segment& s, SimTime x) { return s.start < x; });
    if (it == segments_.begin()) {
      throw std::logic_error("PowerTape::EnergyJoules window ends in dropped segments");
    }
    const std::size_t k = static_cast<std::size_t>(it - segments_.begin()) - 1;
    return prefix_[k] + segments_[k].watts * (end - segments_[k].start).ToSeconds();
  }
  // The window opens mid-tape: sum only the overlapped segments, starting at
  // the last segment whose start is <= begin.  Loop body identical to the
  // old full scan, so the result rounds identically.
  auto it = std::upper_bound(segments_.begin(), segments_.end(), begin,
                             [](SimTime x, const Segment& s) { return x < s.start; });
  if (it == segments_.begin()) {
    throw std::logic_error("PowerTape::EnergyJoules window opens in dropped segments");
  }
  double joules = 0.0;
  for (std::size_t i = static_cast<std::size_t>(it - segments_.begin()) - 1;
       i < segments_.size() && segments_[i].start < end; ++i) {
    const SimTime seg_begin = std::max(segments_[i].start, begin);
    const SimTime seg_end =
        std::min(i + 1 < segments_.size() ? segments_[i + 1].start : end, end);
    if (seg_end > seg_begin) {
      joules += segments_[i].watts * (seg_end - seg_begin).ToSeconds();
    }
  }
  return joules;
}

double PowerTape::AverageWatts(SimTime begin, SimTime end) const {
  if (end <= begin) {
    return 0.0;
  }
  return EnergyJoules(begin, end) / (end - begin).ToSeconds();
}

}  // namespace dcs
