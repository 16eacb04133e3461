// Table-driven command-line parsing for the ftdl tools.
//
// A tool describes its command line once, as a Spec: at most one positional
// operand plus one Flag row per option. The parser walks argv against that
// table and generates the usage text from it, so a flag's name, metavar,
// help, range and default are written down exactly once. The value a row's
// target holds when the row is built is the default the usage shows
// (omitted when it is not a valid value, i.e. a "not set" sentinel).
//
// Every malformed command line is a usage error: an unknown option, a flag
// missing its value, a value that is garbage or out of range, and a missing
// or extra positional. A repeated flag keeps the last value.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ftdl::cli {

/// Sign rule of a floating-point flag.
enum class Sign { Positive, NonNegative };

struct Flag {
  const char* name;     ///< "--jobs"
  const char* metavar;  ///< "N", "FILE", a choice's "a|b"; "" = a switch
  const char* help;
  std::string expects;        ///< valid values, for errors: "a positive number"
  std::string shown_default;  ///< "" = none shown
  /// Validates and stores a value (a switch gets nullptr); false = invalid.
  std::function<bool(const char*)> set;
};

struct Positional {
  const char* metavar = nullptr;  ///< nullptr = the tool takes none
  const char* help = "";
  std::string* dst = nullptr;  ///< its value before parsing is the default
  bool required = false;
};

struct Spec {
  const char* prog;  ///< prefixes error messages
  Positional positional;
  std::vector<Flag> flags;
};

Flag flag(const char* name, const char* help, bool* dst);
Flag text(const char* name, const char* metavar, const char* help,
          std::string* dst);
/// A number satisfying `sign`.
Flag real(const char* name, const char* metavar, const char* help,
          double* dst, Sign sign);
/// One of the '|'-separated `choices`, which double as the metavar.
Flag choice(const char* name, const char* choices, const char* help,
            std::string* dst);
/// An integer in [min, max].
Flag integer(const char* name, const char* metavar, const char* help,
             std::int64_t initial, std::int64_t min, std::int64_t max,
             std::function<void(std::int64_t)> store);

template <class T>
Flag integer(const char* name, const char* metavar, const char* help, T* dst,
             std::int64_t min, std::int64_t max) {
  return integer(name, metavar, help, static_cast<std::int64_t>(*dst), min,
                 max, [dst](std::int64_t v) { *dst = static_cast<T>(v); });
}

/// The generated usage text, starting with "usage: ".
std::string usage(const Spec& spec);

/// Parses argv[1..argc) into the spec's targets. Returns "" on success,
/// else the error message (flags seen before the error are stored).
std::string try_parse(const Spec& spec, int argc, const char* const* argv);

/// try_parse; on failure prints "PROG: error" and the usage to stderr and
/// exits with status 2.
void parse(const Spec& spec, int argc, const char* const* argv);

}  // namespace ftdl::cli
