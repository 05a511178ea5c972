#include "netgym/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "netgym/parallel.hpp"

namespace {

namespace tel = netgym::telemetry;

/// Removes the file and uninstalls the global logger when a test exits.
struct LogFileGuard {
  explicit LogFileGuard(std::string p) : path(std::move(p)) {}
  ~LogFileGuard() {
    tel::set_global_logger(nullptr);
    std::remove(path.c_str());
  }
  std::string path;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Minimal structural JSON check: object braces balance outside strings and
/// the line ends exactly where the object does.
bool looks_like_json_object(const std::string& line) {
  if (line.empty() || line.front() != '{') return false;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      if (depth == 0 && c == '}') return i + 1 == line.size();
      if (depth < 0) return false;
    }
  }
  return false;
}

TEST(Registry, CountersGaugesAndHistogramsAccumulate) {
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Counter& c = reg.counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  // Same name resolves to the same metric.
  EXPECT_EQ(&reg.counter("test.counter"), &c);
  EXPECT_EQ(reg.counter("test.counter").value(), 42);

  reg.gauge("test.gauge").set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("test.gauge").value(), 2.5);

  tel::Histogram& h = reg.histogram("test.seconds");
  EXPECT_EQ(&reg.histogram("test.seconds"), &h);
  h.record(1.5);
  h.record(0.5);
  EXPECT_EQ(h.snapshot().count, 2);
  EXPECT_DOUBLE_EQ(h.snapshot().sum, 2.0);
}

TEST(Registry, SnapshotIsNameSortedAndResetZeroesWithoutInvalidating) {
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Counter& c = reg.counter("snap.b");
  reg.gauge("snap.a").set(1.0);
  c.add(7);

  const auto entries = reg.snapshot();
  ASSERT_GE(entries.size(), 2u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LE(entries[i - 1].name, entries[i].name);
  }

  reg.reset_all();
  EXPECT_EQ(c.value(), 0);  // reference from before reset still valid
  c.add(3);
  EXPECT_EQ(c.value(), 3);
}

TEST(Registry, CounterIsExactUnderConcurrentIncrements) {
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Counter& c = reg.counter("concurrent.counter");
  netgym::set_num_threads(8);
  netgym::parallel_for_each(64, [&](std::size_t) {
    for (int i = 0; i < 1000; ++i) c.add();
  });
  netgym::set_num_threads(0);
  EXPECT_EQ(c.value(), 64'000);
}

TEST(Histogram, ExactPercentilesBelowTheCap) {
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Histogram& h = reg.histogram("hist.exact");
  for (int i = 100; i >= 1; --i) h.record(i);  // 1..100, reversed
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 100);
  EXPECT_TRUE(snap.exact);
  EXPECT_DOUBLE_EQ(snap.sum, 5050.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  // Linear interpolation over the sorted samples (same as netgym::percentile).
  EXPECT_DOUBLE_EQ(snap.p50, 50.5);
  EXPECT_NEAR(snap.p90, 90.1, 1e-9);
  EXPECT_NEAR(snap.p99, 99.01, 1e-9);
}

TEST(Histogram, HandlesNegativeValuesAndIgnoresNonFinite) {
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Histogram& h = reg.histogram("hist.negative");
  for (double v : {-10.0, -1.0, 0.0, 1.0, 10.0}) h.record(v);
  h.record(std::nan(""));
  h.record(std::numeric_limits<double>::infinity());
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 5);
  EXPECT_DOUBLE_EQ(snap.min, -10.0);
  EXPECT_DOUBLE_EQ(snap.max, 10.0);
  EXPECT_DOUBLE_EQ(snap.p50, 0.0);
}

TEST(Histogram, BucketEstimatesPastTheCapStayWithinRelativeError) {
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Histogram& h = reg.histogram("hist.bucketed");
  const int n = static_cast<int>(tel::Histogram::kExactCap) + 2000;
  for (int i = 1; i <= n; ++i) h.record(i);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, n);
  EXPECT_FALSE(snap.exact);
  // Log buckets with 4 sub-buckets per octave: <= ~9% relative error.
  EXPECT_NEAR(snap.p50, 0.5 * n, 0.09 * n);
  EXPECT_NEAR(snap.p90, 0.9 * n, 0.09 * n);
  EXPECT_NEAR(snap.p99, 0.99 * n, 0.09 * n);
  EXPECT_DOUBLE_EQ(snap.max, n);
  // Estimates clamp into the observed range even at the extremes.
  EXPECT_GE(snap.p50, snap.min);
  EXPECT_LE(snap.p99, snap.max);
}

TEST(Histogram, ConcurrentRecordingMatchesSerialSnapshot) {
  // Order-independence is the histogram's determinism contract: the same
  // multiset of samples must yield the identical snapshot no matter how many
  // threads recorded it or in what order.
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Histogram& serial = reg.histogram("hist.serial");
  tel::Histogram& parallel = reg.histogram("hist.parallel");
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 50; ++j) serial.record(i + j * 0.25);
  }
  netgym::set_num_threads(8);
  netgym::parallel_for_each(64, [&](std::size_t i) {
    for (int j = 0; j < 50; ++j) {
      parallel.record(static_cast<double>(i) + j * 0.25);
    }
  });
  netgym::set_num_threads(0);

  const auto a = serial.snapshot();
  const auto b = parallel.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
}

TEST(Histogram, MergeMatchesSingleStreamBelowTheExactCap) {
  // The fleet determinism contract rests on this: shard-local histograms
  // merged in shard order must be indistinguishable from one histogram that
  // saw every sample. Integer-valued samples keep the float sums exact, so
  // the comparison can demand bitwise equality.
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Histogram& merged = reg.histogram("hist.merge.a");
  tel::Histogram& other = reg.histogram("hist.merge.b");
  tel::Histogram& single = reg.histogram("hist.merge.single");
  for (int i = 1; i <= 100; ++i) {
    (i % 2 == 0 ? merged : other).record(i);
    single.record(i);
  }
  merged.merge(other);
  const auto a = merged.snapshot();
  const auto b = single.snapshot();
  EXPECT_EQ(a.count, 100);
  EXPECT_TRUE(a.exact);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.p999, b.p999);
}

TEST(Histogram, MergeOfEmptyIsANoOp) {
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Histogram& h = reg.histogram("hist.merge.noop");
  tel::Histogram& empty = reg.histogram("hist.merge.empty");
  h.record(3.0);
  h.merge(empty);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_DOUBLE_EQ(snap.p50, 3.0);

  empty.merge(h);  // merging INTO an empty histogram adopts the samples
  const auto adopted = empty.snapshot();
  EXPECT_EQ(adopted.count, 1);
  EXPECT_DOUBLE_EQ(adopted.p50, 3.0);
}

TEST(Histogram, MergedPercentilesPastTheCapStayWithinRelativeError) {
  // Two shards of 3000 samples merge past the 4096-sample exact cap; the
  // snapshot must fall back to the log buckets and stay inside the
  // documented <= 9.05% relative error bound (DESIGN.md S5h).
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Histogram& lo = reg.histogram("hist.merge.lo");
  tel::Histogram& hi = reg.histogram("hist.merge.hi");
  const int n = 6000;
  for (int i = 1; i <= n; ++i) (i <= n / 2 ? lo : hi).record(i);
  lo.merge(hi);
  const auto snap = lo.snapshot();
  EXPECT_EQ(snap.count, n);
  EXPECT_FALSE(snap.exact);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, n);
  EXPECT_DOUBLE_EQ(snap.sum, n * (n + 1.0) / 2.0);
  EXPECT_NEAR(snap.p50, 0.5 * n, 0.0905 * n);
  EXPECT_NEAR(snap.p90, 0.9 * n, 0.0905 * n);
  EXPECT_NEAR(snap.p99, 0.99 * n, 0.0905 * n);
  EXPECT_NEAR(snap.p999, 0.999 * n, 0.0905 * n);
  EXPECT_LE(snap.p999, snap.max);
}

TEST(Histogram, MergeAccumulatesDroppedAndSaturatedCounts) {
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Histogram& a = reg.histogram("hist.merge.drop.a");
  tel::Histogram& b = reg.histogram("hist.merge.drop.b");
  a.record(std::nan(""));
  a.record(std::numeric_limits<double>::infinity());
  b.record(-std::numeric_limits<double>::infinity());
  a.record(1.0);
  // Finite but beyond the bucket range (kMinAbs * 2^64): recorded exactly
  // while under the cap but counted as tail-saturated for the bucket path.
  a.record(1e300);
  b.record(-1e300);
  a.merge(b);
  const auto snap = a.snapshot();
  EXPECT_EQ(snap.count, 3);  // 1.0, 1e300, -1e300
  EXPECT_EQ(snap.dropped, 3);
  EXPECT_EQ(snap.saturated, 2);
  EXPECT_DOUBLE_EQ(snap.max, 1e300);
  EXPECT_DOUBLE_EQ(snap.min, -1e300);
}

TEST(Histogram, ResetZeroesWithoutInvalidatingReferences) {
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Histogram& h = reg.histogram("hist.reset");
  h.record(5.0);
  reg.reset_all();
  EXPECT_EQ(h.count(), 0);
  h.record(2.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_DOUBLE_EQ(snap.p50, 2.0);
}

TEST(Histogram, AppearsInRegistrySnapshotAndMetricsTable) {
  tel::Registry& reg = tel::Registry::instance();
  reg.reset_all();
  tel::Histogram& h = reg.histogram("hist.table");
  h.record(1.0);
  h.record(3.0);

  bool found = false;
  for (const auto& entry : reg.snapshot()) {
    if (entry.name != "hist.table") continue;
    found = true;
    EXPECT_EQ(entry.kind, tel::Registry::Kind::kHistogram);
    EXPECT_EQ(entry.count, 2);
    EXPECT_DOUBLE_EQ(entry.value, 4.0);  // sum
    EXPECT_DOUBLE_EQ(entry.hist.p50, 2.0);
  }
  EXPECT_TRUE(found);

  const std::string table = tel::format_metrics_table();
  EXPECT_NE(table.find("metric"), std::string::npos);
  EXPECT_NE(table.find("hist.table"), std::string::npos);
  EXPECT_NE(table.find("histogram"), std::string::npos);
  EXPECT_EQ(table.back(), '\n');
}

TEST(Registry, SnapshotFieldsCoverEveryEntryKind) {
  using Kind = tel::Registry::Kind;
  std::vector<tel::Registry::Entry> entries(4);
  entries[0] = {"c", Kind::kCounter, 3.0, 0, {}};
  entries[1] = {"g", Kind::kGauge, -0.5, 0, {}};
  entries[2].name = "h";
  entries[2].kind = Kind::kHistogram;
  entries[2].hist.count = 4;
  entries[2].hist.sum = 10.0;
  entries[2].hist.p50 = 2.0;
  entries[2].hist.p90 = 3.0;
  entries[2].hist.p99 = 3.5;
  entries[2].hist.max = 4.0;
  entries[3].name = "empty";  // a histogram with no samples has mean 0
  entries[3].kind = Kind::kHistogram;

  const std::vector<tel::Field> fields = tel::snapshot_fields(entries);
  const std::vector<std::pair<std::string, tel::FieldValue>> expected = {
      {"c", 3.0},
      {"g", -0.5},
      {"h.count", std::int64_t{4}},
      {"h.mean", 2.5},
      {"h.p50", 2.0},
      {"h.p90", 3.0},
      {"h.p99", 3.5},
      {"h.max", 4.0},
      {"empty.count", std::int64_t{0}},
      {"empty.mean", 0.0},
      {"empty.p50", 0.0},
      {"empty.p90", 0.0},
      {"empty.p99", 0.0},
      {"empty.max", 0.0},
  };
  EXPECT_EQ(fields, expected);
  EXPECT_TRUE(tel::snapshot_fields({}).empty());
}

TEST(RunLogger, WritesOneParseableJsonLinePerEvent) {
  const std::string path =
      ::testing::TempDir() + "telemetry_runlogger_test.jsonl";
  LogFileGuard guard(path);
  {
    tel::RunLogger logger(path);
    logger.event("alpha", 0,
                 {{"reward", 1.5},
                  {"steps", std::int64_t{400}},
                  {"name", std::string("abr")},
                  {"config", std::vector<double>{1.0, 2.5, 3.0}}});
    logger.event("beta", 1, {{"value", -0.25}});
    EXPECT_EQ(logger.events_written(), 2u);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_TRUE(looks_like_json_object(line)) << line;
    EXPECT_NE(line.find("\"type\":"), std::string::npos);
    EXPECT_NE(line.find("\"step\":"), std::string::npos);
    EXPECT_NE(line.find("\"seq\":"), std::string::npos);
  }
  EXPECT_NE(lines[0].find("\"type\":\"alpha\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"config\":[1,2.5,3]"), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"beta\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":1"), std::string::npos);
}

TEST(RunLogger, EscapesStringsAndMapsNonFiniteToNull) {
  const std::string path =
      ::testing::TempDir() + "telemetry_escape_test.jsonl";
  LogFileGuard guard(path);
  {
    tel::RunLogger logger(path);
    logger.event("weird", 0,
                 {{"text", std::string("a\"b\\c\nd\te")},
                  {"nan", std::nan("")},
                  {"inf", std::numeric_limits<double>::infinity()}});
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(looks_like_json_object(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("a\\\"b\\\\c\\nd\\te"), std::string::npos);
  EXPECT_NE(lines[0].find("\"nan\":null"), std::string::npos);
  EXPECT_NE(lines[0].find("\"inf\":null"), std::string::npos);
}

TEST(RunLogger, EscapesControlCharactersWithShorthandsAndUnicode) {
  // Backspace/form-feed get the two-character JSON shorthands; the remaining
  // control characters (here 0x01 and 0x1f) fall back to \u00xx. Nothing
  // below 0x20 may ever reach the output raw -- one raw control byte makes
  // the whole line unparseable to strict JSON readers.
  const std::string path =
      ::testing::TempDir() + "telemetry_ctrl_escape_test.jsonl";
  LogFileGuard guard(path);
  {
    tel::RunLogger logger(path);
    logger.event("ctrl", 0,
                 {{"text", std::string("a\bb\fc\x01"
                                       "d\x1f"
                                       "e")}});
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(looks_like_json_object(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("a\\bb\\fc\\u0001d\\u001fe"), std::string::npos)
      << lines[0];
  for (char c : lines[0]) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(JsonAppendString, EscapesEveryControlCharacterAndDelimiters) {
  // Exhaustive sweep over the bytes append_string must never emit raw.
  for (int c = 0; c < 0x20; ++c) {
    std::string out;
    tel::json::append_string(out, std::string(1, static_cast<char>(c)));
    ASSERT_GE(out.size(), 4u) << "byte " << c;
    EXPECT_EQ(out.front(), '"');
    EXPECT_EQ(out.back(), '"');
    EXPECT_EQ(out[1], '\\') << "byte " << c << " escaped as " << out;
  }
  std::string quote;
  tel::json::append_string(quote, "\"");
  EXPECT_EQ(quote, "\"\\\"\"");
  std::string backslash;
  tel::json::append_string(backslash, "\\");
  EXPECT_EQ(backslash, "\"\\\\\"");
}

TEST(RunLogger, ThrowsOnUnwritablePath) {
  EXPECT_THROW(tel::RunLogger("/nonexistent-dir/telemetry.jsonl"),
               std::runtime_error);
}

TEST(GlobalLogger, LogEventIsNoOpWithoutSinkAndRoutesWithOne) {
  const std::string path =
      ::testing::TempDir() + "telemetry_global_test.jsonl";
  LogFileGuard guard(path);
  tel::set_global_logger(nullptr);
  EXPECT_FALSE(tel::logging_enabled());
  tel::log_event("dropped", 0, {{"x", 1.0}});  // must not crash

  tel::open_global_logger(path);
  EXPECT_TRUE(tel::logging_enabled());
  tel::log_event("kept", 7, {{"x", 1.0}});
  tel::set_global_logger(nullptr);
  EXPECT_FALSE(tel::logging_enabled());

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\":\"kept\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"step\":7"), std::string::npos);
}

TEST(GlobalLogger, ConcurrentEventsInterleaveAtLineGranularity) {
  const std::string path =
      ::testing::TempDir() + "telemetry_concurrent_test.jsonl";
  LogFileGuard guard(path);
  tel::open_global_logger(path);
  netgym::set_num_threads(8);
  netgym::parallel_for_each(32, [&](std::size_t i) {
    tel::log_event("burst", static_cast<std::int64_t>(i),
                   {{"payload", std::string(64, 'x')}});
  });
  netgym::set_num_threads(0);
  tel::set_global_logger(nullptr);

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 32u);
  for (const auto& line : lines) {
    EXPECT_TRUE(looks_like_json_object(line)) << line;
  }
}

}  // namespace
