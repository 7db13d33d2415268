#include "src/sim/trace_sink.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dcs {

void TraceSeries::Append(SimTime at, double value) {
  assert((points_.empty() || at >= points_.back().at) &&
         "TraceSeries samples must be time-ordered");
  points_.push_back(TracePoint{at, value});
}

TraceSeries& TraceSink::Series(const std::string& name) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(name, TraceSeries(name)).first;
  }
  return it->second;
}

const TraceSeries* TraceSink::Find(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<std::string> TraceSink::Names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, unused] : series_) {
    names.push_back(name);
  }
  return names;
}

void TraceSink::WriteCsv(const std::string& name, std::ostream& os) const {
  const TraceSeries* s = Find(name);
  os << "time_us,value\n";
  if (s == nullptr) {
    return;
  }
  for (const TracePoint& p : s->points()) {
    os << p.at.micros() << "," << p.value << "\n";
  }
}

}  // namespace dcs
