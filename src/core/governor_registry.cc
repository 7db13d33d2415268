#include "src/core/governor_registry.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "src/core/adaptive_governor.h"
#include "src/core/cycle_count_governor.h"
#include "src/core/deadline_governor.h"
#include "src/core/feedback_governor.h"
#include "src/core/fixed_policy.h"
#include "src/core/govil_policies.h"
#include "src/core/interval_governor.h"
#include "src/core/modern_governors.h"
#include "src/core/predictor.h"
#include "src/core/rate_governor.h"
#include "src/core/speed_policy.h"
#include "src/hw/clock_table.h"

namespace dcs {
namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    const std::size_t end = s.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(s.substr(begin));
      break;
    }
    parts.push_back(s.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool ParseInt(const std::string& s, int* out) {
  double d = 0.0;
  if (!ParseDouble(s, &d) || d != static_cast<int>(d)) {
    return false;
  }
  *out = static_cast<int>(d);
  return true;
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

std::unique_ptr<UtilizationPredictor> MakePredictor(const std::string& token) {
  const std::string lower = Lower(token);
  if (lower == "past") {
    return std::make_unique<PastPredictor>();
  }
  int n = 0;
  if (lower.rfind("avg", 0) == 0 && ParseInt(lower.substr(3), &n) && n >= 0) {
    return std::make_unique<AvgNPredictor>(n);
  }
  if (lower.rfind("win", 0) == 0 && ParseInt(lower.substr(3), &n) && n >= 1) {
    return std::make_unique<SlidingWindowPredictor>(n);
  }
  // Govil et al.'s predictors.
  if (lower == "ls") {
    return std::make_unique<LongShortPredictor>();
  }
  if (lower == "peak") {
    return std::make_unique<PeakPredictor>();
  }
  if (lower.rfind("cycle", 0) == 0 && ParseInt(lower.substr(5), &n) && n >= 2) {
    return std::make_unique<CyclePredictor>(n);
  }
  return nullptr;
}

// Wraps a freshly built concrete governor in a GovernorHandle, capturing its
// static dispatch thunk while the concrete type is still visible.
template <typename P>
GovernorHandle Handle(std::unique_ptr<P> policy) {
  GovernorHandle handle;
  handle.dispatch = PolicyDispatch::For<P>(policy.get());
  handle.governor = std::move(policy);
  return handle;
}

std::unique_ptr<FixedPolicy> MakeFixed(const std::string& spec, std::string* error) {
  // "fixed-<mhz>" or "fixed-<mhz>@1.23".
  std::string body = spec.substr(6);
  CoreVoltage voltage = CoreVoltage::kHigh;
  const std::size_t at = body.find('@');
  if (at != std::string::npos) {
    const std::string volts = body.substr(at + 1);
    if (volts == "1.23") {
      voltage = CoreVoltage::kLow;
    } else if (volts != "1.5" && volts != "1.50") {
      SetError(error, "unknown voltage '" + volts + "' (expected 1.5 or 1.23)");
      return nullptr;
    }
    body = body.substr(0, at);
  }
  double mhz = 0.0;
  if (!ParseDouble(body, &mhz)) {
    SetError(error, "bad frequency in fixed spec '" + spec + "'");
    return nullptr;
  }
  const int step = ClockTable::NearestStep(mhz);
  if (!VoltageRegulator::StepAllowedAt(voltage, step)) {
    SetError(error, "frequency " + body + " MHz is unsafe at 1.23 V");
    return nullptr;
  }
  return std::make_unique<FixedPolicy>(step, voltage);
}

std::unique_ptr<IntervalGovernor> MakeInterval(const std::string& spec, std::string* error) {
  std::vector<std::string> parts = Split(spec, '-');
  bool voltage_scaling = false;
  if (!parts.empty() && Lower(parts.back()) == "vs") {
    voltage_scaling = true;
    parts.pop_back();
  }
  if (parts.size() != 5) {
    SetError(error, "expected <pred>-<up>-<down>-<lo>-<hi>[-vs], got '" + spec + "'");
    return nullptr;
  }
  auto predictor = MakePredictor(parts[0]);
  if (predictor == nullptr) {
    SetError(error, "unknown predictor '" + parts[0] + "'");
    return nullptr;
  }
  auto up = MakeSpeedPolicy(Lower(parts[1]));
  auto down = MakeSpeedPolicy(Lower(parts[2]));
  if (up == nullptr || down == nullptr) {
    SetError(error, "unknown speed policy in '" + spec + "' (one|double|peg)");
    return nullptr;
  }
  double lo = 0.0;
  double hi = 0.0;
  if (!ParseDouble(parts[3], &lo) || !ParseDouble(parts[4], &hi) || lo < 0.0 ||
      hi > 100.0 || lo > hi) {
    SetError(error, "bad thresholds in '" + spec + "' (need 0 <= lo <= hi <= 100)");
    return nullptr;
  }
  IntervalGovernorConfig config;
  config.thresholds = Thresholds{lo / 100.0, hi / 100.0};
  config.voltage_scaling = voltage_scaling;
  return std::make_unique<IntervalGovernor>(std::move(predictor), std::move(up),
                                            std::move(down), config);
}

}  // namespace

std::unique_ptr<ClockPolicy> MakeGovernor(const std::string& spec, std::string* error) {
  return MakeGovernorDispatch(spec, error).governor;
}

GovernorHandle MakeGovernorDispatch(const std::string& spec, std::string* error) {
  SetError(error, "");
  const std::string lower = Lower(spec);
  if (lower.empty() || lower == "none") {
    return {};
  }
  if (lower == "ondemand") {
    return Handle(std::make_unique<OndemandGovernor>());
  }
  if (lower == "schedutil") {
    return Handle(std::make_unique<SchedutilGovernor>());
  }
  if (lower.rfind("fixed-", 0) == 0) {
    auto fixed = MakeFixed(lower, error);
    return fixed != nullptr ? Handle(std::move(fixed)) : GovernorHandle{};
  }
  if (lower.rfind("cycles", 0) == 0) {
    int window = 0;
    if (!ParseInt(lower.substr(6), &window) || window < 1) {
      SetError(error, "bad window in '" + spec + "' (e.g. cycles4)");
      return {};
    }
    return Handle(std::make_unique<CycleCountGovernor>(window));
  }
  if (lower.rfind("flat-", 0) == 0) {
    double target = 0.0;
    if (!ParseDouble(lower.substr(5), &target) || target <= 0.0 || target > 100.0) {
      SetError(error, "bad target in '" + spec + "' (e.g. flat-75)");
      return {};
    }
    FlatGovernorConfig config;
    config.target = target / 100.0;
    return Handle(std::make_unique<FlatGovernor>(config));
  }
  if (lower.rfind("satrate", 0) == 0) {
    int window = 0;
    if (!ParseInt(lower.substr(7), &window) || window < 1) {
      SetError(error, "bad window in '" + spec + "' (e.g. satrate4)");
      return {};
    }
    RateGovernorConfig config;
    config.window = window;
    return Handle(std::make_unique<SaturationAwareGovernor>(config));
  }
  if (lower.rfind("deadline", 0) == 0) {
    // "deadline" | "deadline-<cap%>" | with optional "-vs" suffix.
    DeadlineGovernorConfig config;
    std::string body = lower.substr(8);
    if (body.size() >= 3 && body.substr(body.size() - 3) == "-vs") {
      config.voltage_scaling = true;
      body = body.substr(0, body.size() - 3);
    }
    if (!body.empty()) {
      double cap = 0.0;
      if (body[0] != '-' || !ParseDouble(body.substr(1), &cap) || cap <= 0.0 ||
          cap > 100.0) {
        SetError(error, "bad density cap in '" + spec + "' (e.g. deadline-85)");
        return {};
      }
      config.density_cap = cap / 100.0;
    }
    return Handle(std::make_unique<DeadlineGovernor>(config));
  }
  if (lower.rfind("pid", 0) == 0) {
    // "pid" | "pid-<kp>-<ki>-<kd>" | with optional "-vs" suffix.
    FeedbackGovernorConfig config;
    std::string body = lower.substr(3);
    if (body.size() >= 3 && body.substr(body.size() - 3) == "-vs") {
      config.voltage_scaling = true;
      body = body.substr(0, body.size() - 3);
    }
    if (!body.empty()) {
      bool ok = body[0] == '-';
      std::vector<std::string> gains;
      if (ok) {
        gains = Split(body.substr(1), '-');
        ok = gains.size() == 3 && ParseDouble(gains[0], &config.kp) &&
             ParseDouble(gains[1], &config.ki) && ParseDouble(gains[2], &config.kd) &&
             config.kp >= 0.0 && config.ki >= 0.0 && config.kd >= 0.0;
      }
      if (!ok) {
        SetError(error, "bad gains in '" + spec + "' (e.g. pid-0.5-0.4-0.05)");
        return {};
      }
    }
    return Handle(std::make_unique<FeedbackGovernor>(config));
  }
  if (lower.rfind("adaptive", 0) == 0) {
    // "adaptive" | "adaptive-<eta>" | with optional "-vs" suffix.
    AdaptiveGovernorConfig config;
    std::string body = lower.substr(8);
    if (body.size() >= 3 && body.substr(body.size() - 3) == "-vs") {
      config.voltage_scaling = true;
      body = body.substr(0, body.size() - 3);
    }
    if (!body.empty()) {
      if (body[0] != '-' || !ParseDouble(body.substr(1), &config.eta) || config.eta <= 0.0) {
        SetError(error, "bad learning rate in '" + spec + "' (e.g. adaptive-2.0)");
        return {};
      }
    }
    return Handle(std::make_unique<AdaptiveGovernor>(config));
  }
  auto interval = MakeInterval(spec, error);
  return interval != nullptr ? Handle(std::move(interval)) : GovernorHandle{};
}

std::vector<std::string> AllGovernorSpecs() {
  return {
      "none",
      "fixed-206.4",
      "fixed-132.7@1.23",
      "PAST-peg-peg-93-98",
      "PAST-peg-peg-93-98-vs",
      "AVG9-one-one-50-70",
      "WIN10-peg-peg-93-98",
      "PAST-double-double-50-70",
      "cycles4",
      "satrate4",
      "deadline",
      "deadline-vs",
      "ondemand",
      "schedutil",
      "flat-75",
      "LS-peg-peg-93-98",
      "CYCLE10-peg-peg-93-98",
      "PEAK-peg-peg-93-98",
      "pid-vs",
      "adaptive-vs",
  };
}

std::vector<GovernorFamily> GovernorFamilies() {
  return {
      {"none", "none"},
      {"fixed", "fixed-206.4"},
      {"cycles", "cycles4"},
      {"satrate", "satrate4"},
      {"deadline", "deadline"},
      {"ondemand", "ondemand"},
      {"schedutil", "schedutil"},
      {"flat", "flat-75"},
      {"pid", "pid-vs"},
      {"adaptive", "adaptive-vs"},
      {"interval-past", "PAST-peg-peg-93-98"},
      {"interval-avg", "AVG9-one-one-50-70"},
      {"interval-win", "WIN10-peg-peg-93-98"},
      {"interval-ls", "LS-peg-peg-93-98"},
      {"interval-cycle", "CYCLE10-peg-peg-93-98"},
      {"interval-peak", "PEAK-peg-peg-93-98"},
  };
}

std::string GovernorFamilyOf(const std::string& spec) {
  // Mirrors MakeGovernor's dispatch order exactly; a new constructor branch
  // there needs a matching branch here (and a GovernorFamilies() row) or the
  // registry-completeness test fails.
  const std::string lower = Lower(spec);
  if (lower.empty() || lower == "none") {
    return "none";
  }
  if (lower == "ondemand") {
    return "ondemand";
  }
  if (lower == "schedutil") {
    return "schedutil";
  }
  if (lower.rfind("fixed-", 0) == 0) {
    return "fixed";
  }
  if (lower.rfind("cycles", 0) == 0) {
    return "cycles";
  }
  if (lower.rfind("flat-", 0) == 0) {
    return "flat";
  }
  if (lower.rfind("satrate", 0) == 0) {
    return "satrate";
  }
  if (lower.rfind("deadline", 0) == 0) {
    return "deadline";
  }
  if (lower.rfind("pid", 0) == 0) {
    return "pid";
  }
  if (lower.rfind("adaptive", 0) == 0) {
    return "adaptive";
  }
  // Interval grammar: classify by the predictor token.
  const std::vector<std::string> parts = Split(lower, '-');
  if (parts.empty()) {
    return "";
  }
  const std::string& pred = parts[0];
  if (pred == "past") {
    return "interval-past";
  }
  if (pred == "ls") {
    return "interval-ls";
  }
  if (pred == "peak") {
    return "interval-peak";
  }
  int n = 0;
  if (pred.rfind("avg", 0) == 0 && ParseInt(pred.substr(3), &n)) {
    return "interval-avg";
  }
  if (pred.rfind("win", 0) == 0 && ParseInt(pred.substr(3), &n)) {
    return "interval-win";
  }
  if (pred.rfind("cycle", 0) == 0 && ParseInt(pred.substr(5), &n)) {
    return "interval-cycle";
  }
  return "";
}

}  // namespace dcs
