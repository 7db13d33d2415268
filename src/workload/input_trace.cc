#include "src/workload/input_trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "src/sim/parse.h"

namespace dcs {
namespace {

constexpr char kCsvHeader[] = "time_us,kind,magnitude";

[[noreturn]] void RowError(int line_number, const std::string& what) {
  throw std::invalid_argument("InputTrace csv line " + std::to_string(line_number) +
                              ": " + what);
}

// Writes a kind field, quoting it CSV-style ("" escapes a quote) whenever it
// contains a comma, quote, or newline — a raw comma would shift every later
// field on read-back.
void WriteKind(std::ostream& os, const std::string& kind) {
  if (kind.find_first_of(",\"\n") == std::string::npos) {
    os << kind;
    return;
  }
  os << '"';
  for (const char c : kind) {
    if (c == '"') {
      os << '"';
    }
    os << c;
  }
  os << '"';
}

// Writes `at` as microseconds with nanosecond-exact decimals, so a written
// trace reads back to the identical SimTime.
void WriteTimeMicros(std::ostream& os, SimTime at) {
  const std::int64_t ns = at.nanos();
  os << ns / 1000;
  const std::int64_t frac = ns % 1000;
  if (frac != 0) {
    char buf[6];  // ".nnn" and its NUL, plus a sign for a negative fraction
    std::snprintf(buf, sizeof(buf), ".%03lld", static_cast<long long>(frac));
    os << buf;
  }
}

// Shortest decimal form that round-trips the double exactly.
void WriteMagnitude(std::ostream& os, double magnitude) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), magnitude);
  os.write(buf, res.ptr - buf);
}

// Splits one CSV row into exactly three fields, honouring quoted kinds.
// Returns false when the row doesn't have exactly three fields or a quoted
// field is malformed (error text in *what).
bool SplitRow(const std::string& line, std::string out[3], std::string* what) {
  std::size_t pos = 0;
  for (int field = 0; field < 3; ++field) {
    std::string value;
    if (pos < line.size() && line[pos] == '"') {
      ++pos;
      bool closed = false;
      while (pos < line.size()) {
        if (line[pos] == '"') {
          if (pos + 1 < line.size() && line[pos + 1] == '"') {
            value.push_back('"');
            pos += 2;
            continue;
          }
          ++pos;
          closed = true;
          break;
        }
        value.push_back(line[pos++]);
      }
      if (!closed) {
        *what = "unterminated quoted field";
        return false;
      }
      if (pos < line.size() && line[pos] != ',') {
        *what = "garbage after closing quote";
        return false;
      }
    } else {
      const std::size_t comma = line.find(',', pos);
      const std::size_t end = comma == std::string::npos ? line.size() : comma;
      value = line.substr(pos, end - pos);
      pos = end;
    }
    out[field] = std::move(value);
    if (field < 2) {
      if (pos >= line.size() || line[pos] != ',') {
        *what = "expected 3 fields (time_us,kind,magnitude)";
        return false;
      }
      ++pos;  // consume the comma
    }
  }
  if (pos != line.size()) {
    *what = "expected 3 fields (time_us,kind,magnitude)";
    return false;
  }
  return true;
}

// Parses a non-negative "123" / "123.456" microsecond stamp to nanosecond
// resolution; at most three fractional digits (the format is ns-exact).
bool ParseTimeMicros(const std::string& s, SimTime* out) {
  if (s.empty() || s[0] == '-' || s[0] == '+') {
    return false;
  }
  const std::size_t dot = s.find('.');
  const std::string whole = s.substr(0, dot);
  if (whole.empty()) {
    return false;
  }
  std::int64_t micros = 0;
  auto res = std::from_chars(whole.data(), whole.data() + whole.size(), micros);
  if (res.ec != std::errc() || res.ptr != whole.data() + whole.size()) {
    return false;
  }
  std::int64_t frac_ns = 0;
  if (dot != std::string::npos) {
    const std::string frac = s.substr(dot + 1);
    if (frac.empty() || frac.size() > 3) {
      return false;
    }
    int digits = 0;
    res = std::from_chars(frac.data(), frac.data() + frac.size(), digits);
    if (res.ec != std::errc() || res.ptr != frac.data() + frac.size()) {
      return false;
    }
    frac_ns = digits;
    for (std::size_t i = frac.size(); i < 3; ++i) {
      frac_ns *= 10;
    }
  }
  *out = SimTime::Nanos(micros * 1000 + frac_ns);
  return true;
}

}  // namespace

void InputTrace::Record(SimTime at, std::string kind, double magnitude) {
  // ReadCsv refuses negative and out-of-order times, so a trace holding one
  // could not be written and read back.
  if (at < SimTime::Zero()) {
    throw std::invalid_argument("InputTrace::Record: negative time " + at.ToString());
  }
  if (!events_.empty() && at < events_.back().at) {
    throw std::invalid_argument("InputTrace::Record: time " + at.ToString() +
                                " before the previous event's");
  }
  events_.push_back(InputEvent{at, std::move(kind), magnitude});
}

SimTime InputTrace::Duration() const {
  return events_.empty() ? SimTime::Zero() : events_.back().at;
}

InputTrace InputTrace::WithReplayJitter(Rng& rng, SimTime jitter) const {
  if (jitter < SimTime::Zero()) {
    throw std::invalid_argument("InputTrace::WithReplayJitter: negative jitter");
  }
  InputTrace out;
  SimTime previous;
  for (const InputEvent& event : events_) {
    const std::int64_t delta =
        rng.UniformInt(-jitter.nanos(), jitter.nanos());
    // Clamp into validity (an event near t=0 may jitter negative), then
    // restore ordering against the previous emitted event.  Equal-time
    // events stay in recorded order: each can only be pushed up to
    // `previous`, never past it.
    SimTime at = std::max(event.at + SimTime::Nanos(delta), SimTime::Zero());
    at = std::max(at, previous);
    out.Record(at, event.kind, event.magnitude);
    previous = at;
  }
  return out;
}

void InputTrace::WriteCsv(std::ostream& os) const {
  os << kCsvHeader << "\n";
  for (const InputEvent& event : events_) {
    WriteTimeMicros(os, event.at);
    os << ",";
    WriteKind(os, event.kind);
    os << ",";
    WriteMagnitude(os, event.magnitude);
    os << "\n";
  }
}

InputTrace InputTrace::ReadCsv(std::istream& is) {
  InputTrace trace;
  std::string line;
  int line_number = 0;
  bool header_seen = false;
  while (std::getline(is, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (!header_seen) {
      if (line != kCsvHeader) {
        RowError(line_number, "expected header '" + std::string(kCsvHeader) +
                                  "', got '" + line + "'");
      }
      header_seen = true;
      continue;
    }
    std::string fields[3];
    std::string what;
    if (!SplitRow(line, fields, &what)) {
      RowError(line_number, what);
    }
    SimTime at;
    if (!ParseTimeMicros(fields[0], &at)) {
      RowError(line_number, "bad time_us '" + fields[0] + "'");
    }
    double magnitude = 0.0;
    if (!ParseDouble(fields[2], &magnitude)) {
      RowError(line_number, "bad magnitude '" + fields[2] + "'");
    }
    if (!trace.events_.empty() && at < trace.events_.back().at) {
      RowError(line_number, "out-of-order timestamp");
    }
    trace.Record(at, fields[1], magnitude);
  }
  return trace;
}

}  // namespace dcs
