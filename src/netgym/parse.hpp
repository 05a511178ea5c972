#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace netgym {

// Strict numeric parsing shared by every knob surface (CLI flags, environment
// variables, daemon options). The contract, matching genet_cli's validated
// flag parsing: a value is a decimal number, and the *entire* string must be
// consumed (leading whitespace and trailing junk like "2x" are errors, as are
// hex spellings), overflow is an error, and range violations are errors --
// never a silent fallback.
// Environment-variable knobs configure long-lived processes (genet_serve), so
// a typo'd value must kill the process with a clear message, not quietly
// select a default.

/// Parse `text` as a base-10 signed 64-bit integer, requiring the whole
/// string to be consumed. Returns false on empty input, garbage, trailing
/// characters, or overflow; `out` is untouched on failure.
bool parse_i64(std::string_view text, std::int64_t& out);

/// Parse `text` into [lo, hi], throwing std::invalid_argument naming `what`
/// (a flag or variable name, used verbatim in the message) on garbage or
/// out-of-range values.
std::int64_t parse_i64_in_range(const char* what, std::string_view text,
                                std::int64_t lo, std::int64_t hi);

/// Read environment variable `name` as an integer in [lo, hi]. Unset or
/// empty returns `fallback`; anything else must strict-parse into range or
/// this throws std::invalid_argument naming the variable -- garbage in an
/// env knob fails loudly instead of silently picking the default.
std::int64_t env_i64(const char* name, std::int64_t fallback, std::int64_t lo,
                     std::int64_t hi);

/// Parse `text` as a finite decimal double, requiring the whole string to be
/// consumed (mirrors parse_i64: no leading whitespace, trailing junk is an
/// error). Hex floats ("0x1p-2"), overflow/underflow (ERANGE) and non-finite
/// results ("inf", "nan") are errors; `out` is untouched on failure.
bool parse_f64(std::string_view text, double& out);

/// Parse `text` into [lo, hi], throwing std::invalid_argument naming `what`
/// on garbage or out-of-range values (float analogue of parse_i64_in_range).
double parse_f64_in_range(const char* what, std::string_view text, double lo,
                          double hi);

/// Read environment variable `name` as a double in [lo, hi]. Unset or empty
/// returns `fallback`; anything else must strict-parse into range or this
/// throws std::invalid_argument naming the variable.
double env_f64(const char* name, double fallback, double lo, double hi);

}  // namespace netgym
