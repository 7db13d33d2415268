#include "src/core/governor_registry.h"

#include <algorithm>
#include <cctype>
#include <cstring>

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
#include "src/sim/parse.h"

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

bool StartsWith(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

// Strips an optional "-vs" (1.23 V voltage scaling) suffix from `body` and
// reports whether it was there.
bool StripVs(std::string* body) {
  if (body->size() < 3 || body->compare(body->size() - 3, 3, "-vs") != 0) {
    return false;
  }
  body->resize(body->size() - 3);
  return true;
}

// An interval spec's predictor token: "past" in "past-peg-peg-93-98".
std::string PredictorToken(const std::string& lower) { return lower.substr(0, lower.find('-')); }

// A numbered predictor token such as "avg9": `name` followed by an integer.
bool NumberedToken(const std::string& lower, const char* name) {
  const std::string token = PredictorToken(lower);
  int n = 0;
  return StartsWith(token, name) && ParseInt(token.substr(std::strlen(name)), &n);
}

GovernorHandle BuildInterval(const std::string&, const std::string& spec, std::string* error) {
  auto interval = MakeInterval(spec, error);
  return interval != nullptr ? Handle(std::move(interval)) : GovernorHandle{};
}

// One governor family: the syntactic claim on the lower-cased spec that
// routes it here, and the builder that validates it and constructs the
// governor.  Builders get the lower-cased spec and the spec as given, which
// their error messages quote.
struct Family {
  const char* name;
  bool (*claims)(const std::string& lower);
  GovernorHandle (*build)(const std::string& lower, const std::string& spec, std::string* error);
};

// The registry: MakeGovernorDispatch and GovernorFamilyOf both take the first
// row that claims a spec, so they agree by construction.  A spec no row
// claims is parsed as an interval spec, which reports the error.
constexpr Family kFamilies[] = {
    {"none", [](const std::string& lower) { return lower.empty() || lower == "none"; },
     [](const std::string&, const std::string&, std::string*) { return GovernorHandle{}; }},
    {"ondemand", [](const std::string& lower) { return lower == "ondemand"; },
     [](const std::string&, const std::string&, std::string*) {
       return Handle(std::make_unique<OndemandGovernor>());
     }},
    {"schedutil", [](const std::string& lower) { return lower == "schedutil"; },
     [](const std::string&, const std::string&, std::string*) {
       return Handle(std::make_unique<SchedutilGovernor>());
     }},
    {"fixed", [](const std::string& lower) { return StartsWith(lower, "fixed-"); },
     [](const std::string& lower, const std::string&, std::string* error) {
       auto fixed = MakeFixed(lower, error);
       return fixed != nullptr ? Handle(std::move(fixed)) : GovernorHandle{};
     }},
    {"cycles", [](const std::string& lower) { return StartsWith(lower, "cycles"); },
     [](const std::string& lower, const std::string& spec, std::string* error) {
       int window = 0;
       if (!ParseInt(lower.substr(6), &window) || window < 1) {
         SetError(error, "bad window in '" + spec + "' (e.g. cycles4)");
         return GovernorHandle{};
       }
       return Handle(std::make_unique<CycleCountGovernor>(window));
     }},
    {"flat", [](const std::string& lower) { return StartsWith(lower, "flat-"); },
     [](const std::string& lower, const std::string& spec, std::string* error) {
       double target = 0.0;
       if (!ParseDouble(lower.substr(5), &target) || target <= 0.0 || target > 100.0) {
         SetError(error, "bad target in '" + spec + "' (e.g. flat-75)");
         return GovernorHandle{};
       }
       FlatGovernorConfig config;
       config.target = target / 100.0;
       return Handle(std::make_unique<FlatGovernor>(config));
     }},
    {"satrate", [](const std::string& lower) { return StartsWith(lower, "satrate"); },
     [](const std::string& lower, const std::string& spec, std::string* error) {
       int window = 0;
       if (!ParseInt(lower.substr(7), &window) || window < 1) {
         SetError(error, "bad window in '" + spec + "' (e.g. satrate4)");
         return GovernorHandle{};
       }
       RateGovernorConfig config;
       config.window = window;
       return Handle(std::make_unique<SaturationAwareGovernor>(config));
     }},
    // "deadline" | "deadline-<cap%>", either with an optional "-vs" suffix.
    {"deadline", [](const std::string& lower) { return StartsWith(lower, "deadline"); },
     [](const std::string& lower, const std::string& spec, std::string* error) {
       DeadlineGovernorConfig config;
       std::string body = lower.substr(8);
       config.voltage_scaling = StripVs(&body);
       if (!body.empty()) {
         double cap = 0.0;
         if (body[0] != '-' || !ParseDouble(body.substr(1), &cap) || cap <= 0.0 ||
             cap > 100.0) {
           SetError(error, "bad density cap in '" + spec + "' (e.g. deadline-85)");
           return GovernorHandle{};
         }
         config.density_cap = cap / 100.0;
       }
       return Handle(std::make_unique<DeadlineGovernor>(config));
     }},
    // "pid" | "pid-<kp>-<ki>-<kd>", either with an optional "-vs" suffix.
    {"pid", [](const std::string& lower) { return StartsWith(lower, "pid"); },
     [](const std::string& lower, const std::string& spec, std::string* error) {
       FeedbackGovernorConfig config;
       std::string body = lower.substr(3);
       config.voltage_scaling = StripVs(&body);
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
           return GovernorHandle{};
         }
       }
       return Handle(std::make_unique<FeedbackGovernor>(config));
     }},
    // "adaptive" | "adaptive-<eta>", either with an optional "-vs" suffix.
    {"adaptive", [](const std::string& lower) { return StartsWith(lower, "adaptive"); },
     [](const std::string& lower, const std::string& spec, std::string* error) {
       AdaptiveGovernorConfig config;
       std::string body = lower.substr(8);
       config.voltage_scaling = StripVs(&body);
       if (!body.empty() &&
           (body[0] != '-' || !ParseDouble(body.substr(1), &config.eta) || config.eta <= 0.0)) {
         SetError(error, "bad learning rate in '" + spec + "' (e.g. adaptive-2.0)");
         return GovernorHandle{};
       }
       return Handle(std::make_unique<AdaptiveGovernor>(config));
     }},
    // The interval grammar, one family per predictor token.
    {"interval-past", [](const std::string& lower) { return PredictorToken(lower) == "past"; },
     BuildInterval},
    {"interval-ls", [](const std::string& lower) { return PredictorToken(lower) == "ls"; },
     BuildInterval},
    {"interval-peak", [](const std::string& lower) { return PredictorToken(lower) == "peak"; },
     BuildInterval},
    {"interval-avg", [](const std::string& lower) { return NumberedToken(lower, "avg"); },
     BuildInterval},
    {"interval-win", [](const std::string& lower) { return NumberedToken(lower, "win"); },
     BuildInterval},
    {"interval-cycle", [](const std::string& lower) { return NumberedToken(lower, "cycle"); },
     BuildInterval},
};

const Family* FamilyOf(const std::string& lower) {
  for (const Family& family : kFamilies) {
    if (family.claims(lower)) {
      return &family;
    }
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<ClockPolicy> MakeGovernor(const std::string& spec, std::string* error) {
  return MakeGovernorDispatch(spec, error).governor;
}

GovernorHandle MakeGovernorDispatch(const std::string& spec, std::string* error) {
  SetError(error, "");
  const std::string lower = Lower(spec);
  const Family* family = FamilyOf(lower);
  return (family != nullptr ? family->build : BuildInterval)(lower, spec, error);
}

std::string GovernorFamilyOf(const std::string& spec) {
  const Family* family = FamilyOf(Lower(spec));
  return family != nullptr ? family->name : "";
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

}  // namespace dcs
