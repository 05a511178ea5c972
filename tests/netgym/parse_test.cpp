// Strict integer parsing (netgym/parse.hpp): the one code path behind every
// numeric CLI flag and env knob. The old atoi/stoi paths silently accepted
// trailing junk ("8x" -> 8) or fell back to a default on garbage; these
// tests pin the replacement's contract: full-string consumption, explicit
// range checks, and loud std::invalid_argument failures that name the
// offending knob.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <regex>
#include <stdexcept>
#include <string>
#include <vector>

#include "netgym/parallel.hpp"
#include "netgym/parse.hpp"

namespace {

std::int64_t must_parse(const std::string& text) {
  std::int64_t out = 0;
  EXPECT_TRUE(netgym::parse_i64(text, out)) << "rejected: " << text;
  return out;
}

bool rejects(const std::string& text) {
  std::int64_t out = 0;
  return !netgym::parse_i64(text, out);
}

TEST(ParseI64, AcceptsPlainIntegers) {
  EXPECT_EQ(must_parse("0"), 0);
  EXPECT_EQ(must_parse("42"), 42);
  EXPECT_EQ(must_parse("-17"), -17);
  EXPECT_EQ(must_parse("+8"), 8);
  EXPECT_EQ(must_parse("007"), 7);
}

TEST(ParseI64, AcceptsFullInt64Range) {
  EXPECT_EQ(must_parse("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(must_parse("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
}

TEST(ParseI64, RejectsEmptyAndNonNumeric) {
  EXPECT_TRUE(rejects(""));
  EXPECT_TRUE(rejects("garbage"));
  EXPECT_TRUE(rejects("x12"));
  EXPECT_TRUE(rejects("-"));
  EXPECT_TRUE(rejects("+"));
}

TEST(ParseI64, RejectsTrailingJunk) {
  // The defining difference from atoi: "8x" must not become 8.
  EXPECT_TRUE(rejects("8x"));
  EXPECT_TRUE(rejects("12 "));
  EXPECT_TRUE(rejects(" 12"));
  EXPECT_TRUE(rejects("1.5"));
  EXPECT_TRUE(rejects("1e3"));
  EXPECT_TRUE(rejects("12\n"));
}

TEST(ParseI64, RejectsOverflow) {
  EXPECT_TRUE(rejects("9223372036854775808"));   // INT64_MAX + 1
  EXPECT_TRUE(rejects("-9223372036854775809"));  // INT64_MIN - 1
  EXPECT_TRUE(rejects("99999999999999999999999999"));
}

TEST(ParseI64, DoesNotTouchOutputOnFailure) {
  std::int64_t out = 123;
  EXPECT_FALSE(netgym::parse_i64("nope", out));
  EXPECT_EQ(out, 123);
}

TEST(ParseI64InRange, AcceptsBoundsInclusive) {
  EXPECT_EQ(netgym::parse_i64_in_range("--k", "1", 1, 8), 1);
  EXPECT_EQ(netgym::parse_i64_in_range("--k", "8", 1, 8), 8);
}

TEST(ParseI64InRange, ThrowsNamingTheKnob) {
  try {
    netgym::parse_i64_in_range("GENET_THREADS", "lots", 1, 4096);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("GENET_THREADS"), std::string::npos) << what;
    EXPECT_NE(what.find("'lots'"), std::string::npos) << what;
  }
}

TEST(ParseI64InRange, ThrowsOutOfRangeWithBounds) {
  try {
    netgym::parse_i64_in_range("--shards", "0", 1, 256);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--shards"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
  EXPECT_THROW(netgym::parse_i64_in_range("--k", "-1", 1, 8),
               std::invalid_argument);
  EXPECT_THROW(netgym::parse_i64_in_range("--k", "9", 1, 8),
               std::invalid_argument);
}

/// RAII env-var override so a throwing test can't leak state into the next.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(EnvI64, FallsBackWhenUnsetOrEmpty) {
  ScopedEnv unset("GENET_PARSE_TEST_KNOB", nullptr);
  EXPECT_EQ(netgym::env_i64("GENET_PARSE_TEST_KNOB", 7, 1, 100), 7);
  ScopedEnv empty("GENET_PARSE_TEST_KNOB", "");
  EXPECT_EQ(netgym::env_i64("GENET_PARSE_TEST_KNOB", 7, 1, 100), 7);
}

TEST(EnvI64, ParsesGoodValues) {
  ScopedEnv env("GENET_PARSE_TEST_KNOB", "33");
  EXPECT_EQ(netgym::env_i64("GENET_PARSE_TEST_KNOB", 7, 1, 100), 33);
}

TEST(EnvI64, ThrowsOnGarbageInsteadOfFallingBack) {
  // The bug this PR fixes: atoi("garbage") == 0 used to silently select the
  // fallback path; now the knob fails loudly, naming itself.
  ScopedEnv env("GENET_PARSE_TEST_KNOB", "garbage");
  try {
    netgym::env_i64("GENET_PARSE_TEST_KNOB", 7, 1, 100);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("GENET_PARSE_TEST_KNOB"),
              std::string::npos)
        << e.what();
  }
}

TEST(EnvI64, ThrowsOnTrailingJunkZeroAndNegative) {
  {
    ScopedEnv env("GENET_PARSE_TEST_KNOB", "8x");
    EXPECT_THROW(netgym::env_i64("GENET_PARSE_TEST_KNOB", 7, 1, 100),
                 std::invalid_argument);
  }
  {
    ScopedEnv env("GENET_PARSE_TEST_KNOB", "0");
    EXPECT_THROW(netgym::env_i64("GENET_PARSE_TEST_KNOB", 7, 1, 100),
                 std::invalid_argument);
  }
  {
    ScopedEnv env("GENET_PARSE_TEST_KNOB", "-4");
    EXPECT_THROW(netgym::env_i64("GENET_PARSE_TEST_KNOB", 7, 1, 100),
                 std::invalid_argument);
  }
}

TEST(EnvKnobs, GenetThreadsGarbageFailsLoudly) {
  // End-to-end through the real knob: set_num_threads(0) marks the pool for
  // a default-sized rebuild, and the rebuild (here via num_threads()) reads
  // GENET_THREADS through the strict parser.
  ScopedEnv env("GENET_THREADS", "garbage");
  netgym::set_num_threads(0);
  try {
    netgym::num_threads();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("GENET_THREADS"), std::string::npos)
        << e.what();
  }
  // Restore a sane pool for the rest of the test binary.
  ScopedEnv sane("GENET_THREADS", nullptr);
  netgym::set_num_threads(0);
  EXPECT_GE(netgym::num_threads(), 1);
}

TEST(EnvKnobs, GenetThreadsZeroFailsLoudly) {
  ScopedEnv env("GENET_THREADS", "0");
  netgym::set_num_threads(0);
  EXPECT_THROW(netgym::num_threads(), std::invalid_argument);
  ScopedEnv sane("GENET_THREADS", nullptr);
  netgym::set_num_threads(0);
  EXPECT_GE(netgym::num_threads(), 1);
}

double must_parse_f64(const std::string& text) {
  double out = 0.0;
  EXPECT_TRUE(netgym::parse_f64(text, out)) << "rejected: " << text;
  return out;
}

bool rejects_f64(const std::string& text) {
  double out = 0.0;
  return !netgym::parse_f64(text, out);
}

TEST(ParseF64, AcceptsPlainAndScientificNumbers) {
  EXPECT_DOUBLE_EQ(must_parse_f64("0"), 0.0);
  EXPECT_DOUBLE_EQ(must_parse_f64("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(must_parse_f64(".5"), 0.5);
  EXPECT_DOUBLE_EQ(must_parse_f64("-2.25"), -2.25);
  EXPECT_DOUBLE_EQ(must_parse_f64("+3"), 3.0);
  EXPECT_DOUBLE_EQ(must_parse_f64("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(must_parse_f64("2.5e-2"), 0.025);
}

TEST(ParseF64, RejectsEmptyAndNonNumeric) {
  EXPECT_TRUE(rejects_f64(""));
  EXPECT_TRUE(rejects_f64("garbage"));
  EXPECT_TRUE(rejects_f64("x0.5"));
  EXPECT_TRUE(rejects_f64("-"));
  EXPECT_TRUE(rejects_f64("+"));
  EXPECT_TRUE(rejects_f64("."));
}

TEST(ParseF64, RejectsStrtodSpecials) {
  // strtod happily parses these; a config knob must not.
  EXPECT_TRUE(rejects_f64("nan"));
  EXPECT_TRUE(rejects_f64("inf"));
  EXPECT_TRUE(rejects_f64("infinity"));
  EXPECT_TRUE(rejects_f64("+inf"));
  EXPECT_TRUE(rejects_f64("-nan"));
}

TEST(ParseF64, RejectsHexFloats) {
  // strtod reads C99 hex floats; parse_i64 refuses hex, and so must this.
  EXPECT_TRUE(rejects_f64("0x10"));
  EXPECT_TRUE(rejects_f64("0x1p-2"));
  EXPECT_TRUE(rejects_f64("0X1P3"));
  EXPECT_TRUE(rejects_f64("-0x1p-1"));
  EXPECT_TRUE(rejects_f64("+0x.8"));
  EXPECT_TRUE(rejects_f64("0x"));
}

TEST(ParseF64, RejectsTrailingJunkAndWhitespace) {
  // The defining difference from atof: "0.5x" must not become 0.5.
  EXPECT_TRUE(rejects_f64("0.5x"));
  EXPECT_TRUE(rejects_f64("1.5 "));
  EXPECT_TRUE(rejects_f64(" 1.5"));
  EXPECT_TRUE(rejects_f64("1.5\n"));
  EXPECT_TRUE(rejects_f64("1..5"));
}

TEST(ParseF64, RejectsOverflow) {
  EXPECT_TRUE(rejects_f64("1e999"));
  EXPECT_TRUE(rejects_f64("-1e999"));
}

TEST(ParseF64, DoesNotTouchOutputOnFailure) {
  double out = 1.25;
  EXPECT_FALSE(netgym::parse_f64("nope", out));
  EXPECT_DOUBLE_EQ(out, 1.25);
}

TEST(ParseF64InRange, AcceptsBoundsInclusive) {
  EXPECT_DOUBLE_EQ(netgym::parse_f64_in_range("--p", "0", 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(netgym::parse_f64_in_range("--p", "1", 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(netgym::parse_f64_in_range("--p", "0.75", 0.0, 1.0), 0.75);
}

TEST(ParseF64InRange, ThrowsNamingTheKnob) {
  try {
    netgym::parse_f64_in_range("GENET_FLEET_TRACE_PROB", "fast", 0.0, 1.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("GENET_FLEET_TRACE_PROB"), std::string::npos) << what;
    EXPECT_NE(what.find("expected a number"), std::string::npos) << what;
    EXPECT_NE(what.find("'fast'"), std::string::npos) << what;
  }
}

TEST(ParseF64InRange, ThrowsOutOfRangeWithBounds) {
  try {
    netgym::parse_f64_in_range("--trace-prob", "1.5", 0.0, 1.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--trace-prob"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
  EXPECT_THROW(netgym::parse_f64_in_range("--p", "-0.01", 0.0, 1.0),
               std::invalid_argument);
}

TEST(EnvF64, FallsBackWhenUnsetOrEmpty) {
  ScopedEnv unset("GENET_PARSE_TEST_FKNOB", nullptr);
  EXPECT_DOUBLE_EQ(netgym::env_f64("GENET_PARSE_TEST_FKNOB", 0.5, 0.0, 1.0),
                   0.5);
  ScopedEnv empty("GENET_PARSE_TEST_FKNOB", "");
  EXPECT_DOUBLE_EQ(netgym::env_f64("GENET_PARSE_TEST_FKNOB", 0.5, 0.0, 1.0),
                   0.5);
}

TEST(EnvF64, ParsesGoodValues) {
  ScopedEnv env("GENET_PARSE_TEST_FKNOB", "0.125");
  EXPECT_DOUBLE_EQ(netgym::env_f64("GENET_PARSE_TEST_FKNOB", 0.5, 0.0, 1.0),
                   0.125);
}

TEST(EnvF64, ThrowsOnGarbageAndOutOfRangeInsteadOfFallingBack) {
  {
    ScopedEnv env("GENET_PARSE_TEST_FKNOB", "garbage");
    try {
      netgym::env_f64("GENET_PARSE_TEST_FKNOB", 0.5, 0.0, 1.0);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("GENET_PARSE_TEST_FKNOB"),
                std::string::npos)
          << e.what();
    }
  }
  {
    ScopedEnv env("GENET_PARSE_TEST_FKNOB", "0.5x");
    EXPECT_THROW(netgym::env_f64("GENET_PARSE_TEST_FKNOB", 0.5, 0.0, 1.0),
                 std::invalid_argument);
  }
  {
    ScopedEnv env("GENET_PARSE_TEST_FKNOB", "1.5");
    EXPECT_THROW(netgym::env_f64("GENET_PARSE_TEST_FKNOB", 0.5, 0.0, 1.0),
                 std::invalid_argument);
  }
}

// Seeded fuzzing of the knob parsers. Inputs are valid knob values mutated
// by character inserts, deletes and replacements, truncation and splices.
// The property: every input parses or fails with the typed error (false, or
// std::invalid_argument from the *_in_range forms), never anything else, and
// an accepted value is the decimal reading of the whole string.
const std::vector<std::string> kKnobSeeds = {
    "0",     "1",      "8",    "42",     "-17",  "+8",   "007",
    "65536", "20000",  "0.5",  "-0.25",  ".25",  "1e-3", "2.5E+2",
    "-0.0",  "0.0001", "1.",   "3.5e10", "9223372036854775807"};
const std::string kFuzzAlphabet = "0123456789+-.eExXpPabcdfinINF \t";

std::string mutate(std::string text, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t mutations = 1 + pick(3);
  for (std::size_t m = 0; m < mutations; ++m) {
    const char c = kFuzzAlphabet[pick(kFuzzAlphabet.size())];
    switch (pick(5)) {
      case 0:  // insert
        text.insert(pick(text.size() + 1), 1, c);
        break;
      case 1:  // delete
        if (!text.empty()) text.erase(pick(text.size()), 1);
        break;
      case 2:  // replace
        if (!text.empty()) text[pick(text.size())] = c;
        break;
      case 3:  // truncate
        text.resize(pick(text.size() + 1));
        break;
      default: {  // splice with another seed
        const std::string& other = kKnobSeeds[pick(kKnobSeeds.size())];
        text = text.substr(0, pick(text.size() + 1)) +
               other.substr(pick(other.size() + 1));
        break;
      }
    }
  }
  return text;
}

/// `text` without a leading '+' (std::from_chars reads no plus sign).
std::string_view unsigned_plus(const std::string& text) {
  std::string_view view(text);
  if (!view.empty() && view.front() == '+') view.remove_prefix(1);
  return view;
}

TEST(ParseFuzz, IntegersParseAsTheirDecimalReadingOrFail) {
  const std::regex decimal("[+-]?[0-9]+");
  std::mt19937_64 rng(20261020);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string text = mutate(kKnobSeeds[rng() % kKnobSeeds.size()], rng);
    std::int64_t value = 0;
    const bool ok = netgym::parse_i64(text, value);
    // The reference reading: the decimal grammar, then from_chars.
    std::int64_t reference = 0;
    bool reference_ok = std::regex_match(text, decimal);
    if (reference_ok) {
      const std::string_view digits = unsigned_plus(text);
      const auto [end, ec] = std::from_chars(
          digits.data(), digits.data() + digits.size(), reference);
      reference_ok = ec == std::errc() && end == digits.data() + digits.size();
    }
    ASSERT_EQ(ok, reference_ok) << "'" << text << "'";
    if (ok) {
      ++accepted;
      ASSERT_EQ(value, reference) << "'" << text << "'";
    }
    try {
      const std::int64_t ranged =
          netgym::parse_i64_in_range("knob", text, -1000, 1000);
      ASSERT_TRUE(ok && value >= -1000 && value <= 1000) << "'" << text << "'";
      ASSERT_EQ(ranged, value) << "'" << text << "'";
    } catch (const std::invalid_argument&) {
      ASSERT_FALSE(ok && value >= -1000 && value <= 1000) << "'" << text << "'";
    }
  }
  EXPECT_GT(accepted, 1000);
}

TEST(ParseFuzz, FloatsParseAsTheirDecimalReadingOrFail) {
  const std::regex decimal(
      "[+-]?([0-9]+[.]?[0-9]*|[.][0-9]+)([eE][+-]?[0-9]+)?");
  std::mt19937_64 rng(20261021);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string text = mutate(kKnobSeeds[rng() % kKnobSeeds.size()], rng);
    double value = 0.0;
    const bool ok = netgym::parse_f64(text, value);
    const bool grammar = std::regex_match(text, decimal);
    double reference = 0.0;
    bool reference_ok = false;
    if (grammar) {
      const std::string_view digits = unsigned_plus(text);
      const auto [end, ec] = std::from_chars(
          digits.data(), digits.data() + digits.size(), reference);
      reference_ok = ec == std::errc() && end == digits.data() + digits.size();
    }
    if (ok) {
      ++accepted;
      ASSERT_TRUE(reference_ok) << "'" << text << "'";
      ASSERT_EQ(std::memcmp(&value, &reference, sizeof value), 0)
          << "'" << text << "' read as " << value << ", not " << reference;
    } else if (reference_ok && std::isfinite(reference)) {
      // Only a value too small for a normal double may be refused (strtod
      // reports ERANGE for it).
      ASSERT_TRUE(reference != 0.0 &&
                  std::abs(reference) < std::numeric_limits<double>::min())
          << "'" << text << "' refused";
    }
    try {
      const double ranged = netgym::parse_f64_in_range("knob", text, -1.0, 1.0);
      ASSERT_TRUE(ok && value >= -1.0 && value <= 1.0) << "'" << text << "'";
      ASSERT_EQ(std::memcmp(&ranged, &value, sizeof value), 0)
          << "'" << text << "'";
    } catch (const std::invalid_argument&) {
      ASSERT_FALSE(ok && value >= -1.0 && value <= 1.0) << "'" << text << "'";
    }
  }
  EXPECT_GT(accepted, 1000);
}

TEST(EnvKnobs, GenetThreadsValidValueIsUsed) {
  ScopedEnv env("GENET_THREADS", "3");
  netgym::set_num_threads(0);
  EXPECT_EQ(netgym::num_threads(), 3);
  ScopedEnv sane("GENET_THREADS", nullptr);
  netgym::set_num_threads(0);
}

}  // namespace
