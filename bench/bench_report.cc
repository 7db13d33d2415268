#include "bench/bench_report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>

namespace dcs {
namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) {
    return "0";
  }
  return std::string(buf, end);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// First "model name" line from /proc/cpuinfo; "unknown" off-Linux.
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      std::size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') {
        ++start;
      }
      return line.substr(start);
    }
  }
  return "unknown";
}

}  // namespace

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n % 2 == 1) {
    return samples[n / 2];
  }
  return 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

BenchReport::BenchReport(std::string label, int repetitions, bool quick)
    : label_(std::move(label)), repetitions_(repetitions), quick_(quick) {}

void BenchReport::WriteJson(std::ostream& os) const {
  os << "{\"schema\":\"dcs-bench/1\"";
  os << ",\"label\":\"" << JsonEscape(label_) << "\"";
  os << ",\"host\":{\"cpu\":\"" << JsonEscape(CpuModel()) << "\"";
  os << ",\"hardware_threads\":" << std::thread::hardware_concurrency();
#if defined(__VERSION__)
  os << ",\"compiler\":\"" << JsonEscape(__VERSION__) << "\"";
#else
  os << ",\"compiler\":\"unknown\"";
#endif
#if defined(DCS_BUILD_TYPE)
  os << ",\"build_type\":\"" << JsonEscape(DCS_BUILD_TYPE) << "\"";
#else
  os << ",\"build_type\":\"unknown\"";
#endif
  for (const auto& [key, value] : host_fields_) {
    os << ",\"" << JsonEscape(key) << "\":\"" << JsonEscape(value) << "\"";
  }
  os << "},\"config\":{\"repetitions\":" << repetitions_
     << ",\"warmup_discarded\":1,\"quick\":" << (quick_ ? "true" : "false") << "}";
  os << ",\"benchmarks\":[";
  bool first = true;
  for (const BenchResult& r : results_) {
    os << (first ? "" : ",") << "{\"name\":\"" << JsonEscape(r.name) << "\""
       << ",\"kind\":\"" << JsonEscape(r.kind) << "\""
       << ",\"unit\":\"" << JsonEscape(r.unit) << "\""
       << ",\"higher_is_better\":" << (r.higher_is_better ? "true" : "false")
       << ",\"median\":" << JsonNumber(r.median) << ",\"samples\":[";
    for (std::size_t i = 0; i < r.samples.size(); ++i) {
      os << (i == 0 ? "" : ",") << JsonNumber(r.samples[i]);
    }
    os << "]}";
    first = false;
  }
  os << "]}";
}

}  // namespace dcs
