#include "src/fault/fault_plan.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "src/sim/parse.h"

namespace dcs {
namespace {

// Storm preset probabilities at intensity 1.0.  Transition failures are kept
// rarer than timing noise, mirroring how often real SA-1100-class hardware
// misbehaves in each way.
constexpr std::array<double, kNumFaultClasses> kStormDefaults = {
    0.05,  // clock-fail
    0.10,  // clock-stretch
    0.10,  // settle-overrun
    0.02,  // brownout
    0.20,  // tick-jitter
    0.02,  // tick-miss
    0.05,  // daq-drop
    0.05,  // mem-spike
};

constexpr const char* kClassNames[kNumFaultClasses] = {
    "clock-fail", "clock-stretch", "settle-overrun", "brownout",
    "tick-jitter", "tick-miss",    "daq-drop",       "mem-spike",
};

// Lower-cases and strips whitespace: the grammar has no quoted tokens, so
// "  Tick-Jitter = 5% " and "tick-jitter=5%" are the same spec.
std::string Canonicalize(std::string s) {
  s.erase(std::remove_if(s.begin(), s.end(),
                         [](unsigned char c) { return std::isspace(c) != 0; }),
          s.end());
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

bool SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

// Parses "0.05" or "5%" into a probability in [0, 1].
bool ParseFraction(const std::string& s, double* out) {
  std::string body = s;
  bool percent = false;
  if (!body.empty() && body.back() == '%') {
    percent = true;
    body.pop_back();
  }
  double value = 0.0;
  if (!ParseDouble(body, &value)) {
    return false;
  }
  if (percent) {
    value /= 100.0;
  }
  if (value < 0.0 || value > 1.0) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseSeed(const std::string& s, std::uint64_t* out) {
  // strtoull accepts a leading sign and silently wraps negatives; the
  // grammar wants plain unsigned digits only.
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s.front())) == 0) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

const char* FaultClassName(FaultClass c) { return kClassNames[static_cast<int>(c)]; }

bool FaultPlan::Active() const {
  for (const double p : probability) {
    if (p > 0.0) {
      return true;
    }
  }
  return false;
}

FaultPlan FaultPlan::Storm(double intensity) {
  intensity = std::clamp(intensity, 0.0, 1.0);
  FaultPlan plan;
  for (int k = 0; k < kNumFaultClasses; ++k) {
    plan.probability[static_cast<std::size_t>(k)] =
        kStormDefaults[static_cast<std::size_t>(k)] * intensity;
  }
  return plan;
}

bool FaultPlan::Parse(const std::string& spec, FaultPlan* plan, std::string* error) {
  *plan = FaultPlan{};
  const std::string lower = Canonicalize(spec);
  if (lower.empty() || lower == "none") {
    return true;
  }
  std::size_t begin = 0;
  while (begin <= lower.size()) {
    const std::size_t end = lower.find(',', begin);
    const std::string item =
        lower.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
    begin = end == std::string::npos ? lower.size() + 1 : end + 1;
    if (item.empty()) {
      *plan = FaultPlan{};
      return SetError(error, "empty item in fault spec '" + spec + "'");
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      *plan = FaultPlan{};
      return SetError(error, "expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      if (!ParseSeed(value, &plan->seed)) {
        *plan = FaultPlan{};
        return SetError(error, "bad seed '" + value + "' (expected an unsigned integer)");
      }
      continue;
    }
    if (key == "storm") {
      double intensity = 0.0;
      if (!ParseFraction(value, &intensity)) {
        *plan = FaultPlan{};
        return SetError(error, "bad storm intensity '" + value + "' (expected 0..1 or %)");
      }
      const std::uint64_t seed = plan->seed;
      *plan = Storm(intensity);
      plan->seed = seed;
      continue;
    }
    bool matched = false;
    for (int k = 0; k < kNumFaultClasses; ++k) {
      if (key != kClassNames[static_cast<std::size_t>(k)]) {
        continue;
      }
      double p = 0.0;
      if (!ParseFraction(value, &p)) {
        *plan = FaultPlan{};
        return SetError(error, "bad probability '" + value + "' for '" + key +
                                   "' (expected 0..1 or %)");
      }
      plan->probability[static_cast<std::size_t>(k)] = p;
      matched = true;
      break;
    }
    if (!matched) {
      *plan = FaultPlan{};
      return SetError(error, "unknown fault class '" + key + "'");
    }
  }
  return true;
}

std::string FaultPlan::Describe() const {
  std::string out = "seed=" + std::to_string(seed);
  for (int k = 0; k < kNumFaultClasses; ++k) {
    const double p = probability[static_cast<std::size_t>(k)];
    if (p <= 0.0) {
      continue;
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",%s=%g", kClassNames[static_cast<std::size_t>(k)], p);
    out += buf;
  }
  return out;
}

}  // namespace dcs
