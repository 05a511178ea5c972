#include "netgym/parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace netgym {

bool parse_i64(std::string_view text, std::int64_t& out) {
  if (text.empty()) return false;
  // strtoll silently skips leading whitespace; " 12" is not a valid knob.
  if (text.front() != '+' && text.front() != '-' &&
      (text.front() < '0' || text.front() > '9')) {
    return false;
  }
  // strtoll needs a NUL-terminated buffer; string_views into larger buffers
  // (flag values, env vars) are short, so one small copy is fine here.
  const std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return false;
  if (end != buf.c_str() + buf.size()) return false;  // trailing junk / empty
  out = static_cast<std::int64_t>(value);
  return true;
}

std::int64_t parse_i64_in_range(const char* what, std::string_view text,
                                std::int64_t lo, std::int64_t hi) {
  std::int64_t value = 0;
  if (!parse_i64(text, value)) {
    throw std::invalid_argument(std::string(what) + ": expected an integer, got '" +
                                std::string(text) + "'");
  }
  if (value < lo || value > hi) {
    throw std::invalid_argument(std::string(what) + ": value " +
                                std::to_string(value) + " out of range [" +
                                std::to_string(lo) + ", " + std::to_string(hi) +
                                "]");
  }
  return value;
}

std::int64_t env_i64(const char* name, std::int64_t fallback, std::int64_t lo,
                     std::int64_t hi) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return fallback;
  return parse_i64_in_range(name, text, lo, hi);
}

bool parse_f64(std::string_view text, double& out) {
  if (text.empty()) return false;
  // strtod skips leading whitespace and accepts "inf"/"nan"; a knob value
  // must start with a digit, sign, or decimal point.
  const char first = text.front();
  if (first != '+' && first != '-' && first != '.' &&
      (first < '0' || first > '9')) {
    return false;
  }
  // strtod also reads C99 hex floats ("0x1p-2"); a knob value is decimal, as
  // parse_i64's are.
  const std::string_view digits =
      first == '+' || first == '-' ? text.substr(1) : text;
  if (digits.size() >= 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    return false;
  }
  const std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) return false;  // overflow or denormal underflow
  if (end != buf.c_str() + buf.size()) return false;  // trailing junk / empty
  if (!std::isfinite(value)) return false;  // "+inf", "-nan", ...
  out = value;
  return true;
}

double parse_f64_in_range(const char* what, std::string_view text, double lo,
                          double hi) {
  double value = 0.0;
  if (!parse_f64(text, value)) {
    throw std::invalid_argument(std::string(what) + ": expected a number, got '" +
                                std::string(text) + "'");
  }
  if (value < lo || value > hi) {
    throw std::invalid_argument(std::string(what) + ": value " +
                                std::to_string(value) + " out of range [" +
                                std::to_string(lo) + ", " + std::to_string(hi) +
                                "]");
  }
  return value;
}

double env_f64(const char* name, double fallback, double lo, double hi) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return fallback;
  return parse_f64_in_range(name, text, lo, hi);
}

}  // namespace netgym
