#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace netgym::flags {

// The one knob parser (DESIGN.md S5c). Each front end declares a table of
// the flags it accepts; the table tokenizes argv, resolves every entry on its
// own -- the flag if given, else its GENET_* variable if set, else its
// default -- through the strict netgym::parse_* helpers, and prints --help.

enum class Kind { kText, kInteger, kReal, kSwitch, kChoice };

/// One declared flag; build entries with the factories below.
struct Flag {
  std::string_view name;     ///< without the leading "--"
  Kind kind;
  std::string_view help;     ///< one line for --help
  const char* fallback;      ///< the default, as text; nullptr = none
  const char* env;           ///< variable read when the flag is absent
  std::int64_t min, max;     ///< kInteger, kReal: inclusive range
  std::string_view choices;  ///< kChoice: the alternatives, '|'-separated
};

inline constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
inline constexpr std::int64_t kInt64Max = INT64_MAX;

constexpr Flag text(std::string_view name, const char* fallback,
                    std::string_view help, const char* env = nullptr) {
  return {name, Kind::kText, help, fallback, env, 0, 0, {}};
}
constexpr Flag integer(std::string_view name, std::int64_t min,
                       std::int64_t max, const char* fallback,
                       std::string_view help, const char* env = nullptr) {
  return {name, Kind::kInteger, help, fallback, env, min, max, {}};
}
constexpr Flag real(std::string_view name, std::int64_t min, std::int64_t max,
                    const char* fallback, std::string_view help,
                    const char* env = nullptr) {
  return {name, Kind::kReal, help, fallback, env, min, max, {}};
}
constexpr Flag choice(std::string_view name, std::string_view choices,
                      const char* fallback, std::string_view help) {
  return {name, Kind::kChoice, help, fallback, nullptr, 0, 0, choices};
}
/// Takes no value: on when given, else when its variable is 1 (of 0 or 1).
constexpr Flag toggle(std::string_view name, std::string_view help,
                      const char* env = nullptr) {
  return {name, Kind::kSwitch, help, nullptr, env, 0, 0, {}};
}

/// A bad token or value, or a required entry left unset; names the token.
struct Error : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// A front end's flag table (its entries plus shared ones, e.g. obs::kFlags)
/// and, once parsed, every entry's value. An undeclared name throws
/// std::out_of_range; an entry without a value, Error "--name is required".
class Args {
 public:
  /// Tokenize `tokens` (argv without the program and subcommand) and resolve
  /// every entry; throws Error.
  Args(std::initializer_list<std::span<const Flag>> table,
       const std::vector<std::string>& tokens);
  /// One line per entry: name, value, help, range, default, variable.
  std::string usage() const;

  bool help() const { return help_; }  ///< --help given; nothing else parsed
  /// True when the entry resolved to a value (flag, variable or default).
  bool has(std::string_view name) const {
    return values_.at(std::string(name)).has_value();
  }
  const std::string& text(std::string_view name) const;  ///< text or choice
  // The value was checked at parse time, so these conversions cannot fail.
  std::int64_t integer(std::string_view name) const {
    return std::stoll(text(name));
  }
  double real(std::string_view name) const { return std::stod(text(name)); }
  bool on(std::string_view name) const { return !text(name).empty(); }
  /// The flags as given on the command line, a switch as "1".
  const std::map<std::string, std::string>& given() const { return given_; }

 private:
  const Flag* lookup(std::string_view name) const;

  std::vector<Flag> flags_;
  std::map<std::string, std::optional<std::string>> values_;
  std::map<std::string, std::string> given_;
  bool help_ = false;
};

/// Print "error: <message>" and a usage line to stderr, then exit 2.
[[noreturn]] void fail(const std::string& program, const std::string& message);

/// Parse argv[first..argc) in a front end's main: on --help print the
/// usage to stdout and exit 0; on an Error, fail().
Args parse_or_exit(std::initializer_list<std::span<const Flag>> table,
                   const std::string& program, int argc, char** argv,
                   int first = 1);

}  // namespace netgym::flags
