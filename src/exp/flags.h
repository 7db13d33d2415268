// Centralized command-line flag parsing for the bench binaries.
//
// Historically every sweep bench hand-rolled a strncmp loop over argv, which
// made malformed invocations succeed silently: a flag passed twice resolved
// by last-write-wins, `--threads=abc` parsed as 0 via atoi, a typo like
// `--thread=4` was ignored outright, and two spellings writing the same
// option (`--out` vs `--report-out`) overwrote each other without a word.
// FlagSet makes the full argv surface of a bench declarative and loud: every
// registered flag knows its type, duplicates and alias conflicts are
// detected by name, numbers must parse in full, and (in strict mode) any
// unknown `--flag` is an error instead of a no-op.

#ifndef SRC_EXP_FLAGS_H_
#define SRC_EXP_FLAGS_H_

#include <cstdio>
#include <string>
#include <vector>

namespace dcs {

class FlagSet {
 public:
  // Registration.  `name` is the long name without the leading dashes
  // ("threads" for --threads).  The target keeps its current value as the
  // default and is only written when the flag appears.
  void String(const std::string& name, std::string* target);
  void Int(const std::string& name, int* target);
  void Double(const std::string& name, double* target);
  // A valueless switch: `--progress` sets *target to true; `--progress=x`
  // is a parse error.
  void Switch(const std::string& name, bool* target);

  // Registers `alias` as an alternate spelling of the already-registered
  // `name`.  Passing both spellings (or either one twice) is a conflict
  // error naming both, so e.g. `--out` and `--report-out` can share a
  // target without last-write-wins.
  void Alias(const std::string& alias, const std::string& name);

  // Parses argv.  Flags accept "--name=value" or "--name value" (switches
  // take no value).  Returns false and fills *error (when non-null) on the
  // first problem: a duplicate or alias-conflicting occurrence, a missing
  // value, an unparsable or out-of-range number, or — unless `allow_unknown`
  // — an argument that is not a registered flag.  With `allow_unknown` set,
  // unregistered arguments are skipped so another parser can layer on top.
  bool Parse(int argc, char** argv, std::string* error, bool allow_unknown = false);

  // Parse-or-die wrapper for bench main(): prints the error plus the list of
  // registered flags to stderr and exits with status 2 on bad usage.
  // `--help` anywhere in argv prints the flag list to stdout and exits 0.
  void ParseOrExit(int argc, char** argv, bool allow_unknown = false);

 private:
  enum class Kind { kString, kInt, kDouble, kSwitch };

  struct Flag {
    std::string name;   // canonical spelling
    Kind kind = Kind::kString;
    void* target = nullptr;
    // Index of the canonical flag this one aliases (-1 for a primary flag).
    int alias_of = -1;
    // The spelling the flag (or one of its aliases) was first seen under;
    // empty until then.  Duplicate detection keys on the canonical flag, so
    // "--out" followed by "--report-out" still collides.
    std::string seen_as;
  };

  Flag* Find(const std::string& name);
  bool Fail(std::string* error, const std::string& message);
  void PrintFlags(std::FILE* out) const;

  std::vector<Flag> flags_;
};

}  // namespace dcs

#endif  // SRC_EXP_FLAGS_H_
