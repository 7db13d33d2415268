#include "src/exp/flags.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/sim/parse.h"

namespace dcs {

FlagSet::Flag* FlagSet::Find(const std::string& name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

void FlagSet::String(const std::string& name, std::string* target) {
  assert(Find(name) == nullptr && "flag registered twice");
  flags_.push_back(Flag{name, Kind::kString, target, -1, {}});
}

void FlagSet::Int(const std::string& name, int* target, int min, int max) {
  assert(Find(name) == nullptr && "flag registered twice");
  flags_.push_back(Flag{name, Kind::kInt, target, -1, {}, min, max});
}

void FlagSet::Double(const std::string& name, double* target) {
  assert(Find(name) == nullptr && "flag registered twice");
  flags_.push_back(Flag{name, Kind::kDouble, target, -1, {}});
}

void FlagSet::Switch(const std::string& name, bool* target) {
  assert(Find(name) == nullptr && "flag registered twice");
  flags_.push_back(Flag{name, Kind::kSwitch, target, -1, {}});
}

void FlagSet::Alias(const std::string& alias, const std::string& name) {
  assert(Find(alias) == nullptr && "alias spelling already registered");
  Flag* primary = Find(name);
  assert(primary != nullptr && "alias of an unregistered flag");
  Flag copy = *primary;
  copy.name = alias;
  copy.alias_of = static_cast<int>(primary - flags_.data());
  flags_.push_back(copy);
}

bool FlagSet::Fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

bool FlagSet::Parse(int argc, char** argv, std::string* error) {
  for (Flag& flag : flags_) {
    flag.seen_as.clear();
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
      return Fail(error, "unexpected argument '" + arg + "'");
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    Flag* flag = Find(name);
    if (flag == nullptr) {
      return Fail(error, "unknown flag '--" + name + "'");
    }
    // Duplicate / alias-conflict detection keys on the canonical flag so
    // "--out" after "--report-out" is caught even though the spellings differ.
    Flag* canonical =
        flag->alias_of >= 0 ? &flags_[static_cast<std::size_t>(flag->alias_of)] : flag;
    if (!canonical->seen_as.empty()) {
      const std::string prior = canonical->seen_as;
      if (prior == name) {
        return Fail(error, "duplicate flag '--" + name + "'");
      }
      return Fail(error, "'--" + name + "' conflicts with '--" + prior + "'");
    }
    canonical->seen_as = name;

    if (flag->kind == Kind::kSwitch) {
      if (eq != std::string::npos) {
        return Fail(error, "'--" + name + "' takes no value");
      }
      *static_cast<bool*>(flag->target) = true;
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Fail(error, "'--" + name + "' needs a value");
    }
    switch (flag->kind) {
      case Kind::kString:
        *static_cast<std::string*>(flag->target) = value;
        break;
      case Kind::kInt: {
        int n = 0;
        if (!ParseInt(value, &n)) {
          return Fail(error, "'--" + name + "' needs an integer, got '" + value + "'");
        }
        if (n < flag->min || n > flag->max) {
          return Fail(error, "'--" + name + "' needs an integer in [" +
                                 std::to_string(flag->min) + ", " + std::to_string(flag->max) +
                                 "], got '" + value + "'");
        }
        *static_cast<int*>(flag->target) = n;
        break;
      }
      case Kind::kDouble:
        if (!ParseDouble(value, static_cast<double*>(flag->target))) {
          return Fail(error, "'--" + name + "' needs a number, got '" + value + "'");
        }
        break;
      case Kind::kSwitch:
        break;  // handled above
    }
  }
  return true;
}

void FlagSet::PrintFlags(std::FILE* out) const {
  std::fprintf(out, "flags:");
  for (const Flag& flag : flags_) {
    std::fprintf(out, " --%s", flag.name.c_str());
  }
  std::fputc('\n', out);
}

void FlagSet::ParseOrExit(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      PrintFlags(stdout);
      std::exit(0);
    }
  }
  std::string error;
  if (Parse(argc, argv, &error)) {
    return;
  }
  std::fprintf(stderr, "error: %s\n", error.c_str());
  PrintFlags(stderr);
  std::exit(2);
}

}  // namespace dcs
