#include "netgym/tracing.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "netgym/parallel.hpp"
#include "netgym/telemetry.hpp"

namespace {

namespace tracing = netgym::tracing;

/// Stops the tracer, removes the trace file, and restores the default pool
/// when a test exits.
struct TraceGuard {
  explicit TraceGuard(std::string p) : path(std::move(p)) {}
  ~TraceGuard() {
    tracing::stop();
    netgym::set_num_threads(0);
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

int count_containing(const std::vector<std::string>& lines,
                     const std::string& needle) {
  int n = 0;
  for (const auto& line : lines) {
    if (line.find(needle) != std::string::npos) ++n;
  }
  return n;
}

TEST(Tracing, DisabledSpansRecordNothing) {
  tracing::stop();
  tracing::start(16);
  tracing::stop();  // cleared and immediately disabled
  { tracing::TraceSpan span("ignored", "task"); }
  EXPECT_EQ(tracing::recorded_spans(), 0u);
  EXPECT_EQ(tracing::dropped_spans(), 0u);
}

TEST(Tracing, WritesChromeTraceJsonWithNamesCategoriesAndIndices) {
  const std::string path = ::testing::TempDir() + "tracing_basic.json";
  TraceGuard guard(path);
  tracing::start(64);
  {
    tracing::TraceSpan outer("outer", "rl");
    tracing::TraceSpan inner("inner", "env", 7);
  }
  tracing::stop();
  EXPECT_EQ(tracing::recorded_spans(), 2u);
  EXPECT_EQ(tracing::write_chrome_trace(path), 2u);

  const auto lines = read_lines(path);
  ASSERT_GE(lines.size(), 4u);  // header + >=1 meta + 2 spans + footer
  EXPECT_EQ(lines.front(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  EXPECT_EQ(lines.back(), "]}");
  EXPECT_GE(count_containing(lines, "\"ph\":\"M\""), 1);
  EXPECT_EQ(count_containing(lines, "\"ph\":\"X\""), 2);
  EXPECT_EQ(count_containing(lines, "\"name\":\"outer\""), 1);
  EXPECT_EQ(count_containing(lines, "\"name\":\"inner\""), 1);
  EXPECT_EQ(count_containing(lines, "\"cat\":\"rl\""), 1);
  EXPECT_EQ(count_containing(lines, "\"args\":{\"index\":7}"), 1);
}

TEST(Tracing, ExplicitEndIsIdempotent) {
  const std::string path = ::testing::TempDir() + "tracing_end.json";
  TraceGuard guard(path);
  tracing::start(64);
  {
    tracing::TraceSpan span("once", "task");
    span.end();
    span.end();  // second close must not emit a duplicate
  }                // neither must the destructor
  tracing::stop();
  EXPECT_EQ(tracing::recorded_spans(), 1u);
}

TEST(Tracing, RingOverflowDropsOldestAndCountsDrops) {
  const std::string path = ::testing::TempDir() + "tracing_overflow.json";
  TraceGuard guard(path);
  tracing::start(/*buffer_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    tracing::TraceSpan span("burst", "task", i);
  }
  tracing::stop();
  EXPECT_EQ(tracing::recorded_spans(), 4u);
  EXPECT_EQ(tracing::dropped_spans(), 6u);
  EXPECT_EQ(tracing::write_chrome_trace(path), 4u);
  // The ring keeps the newest records: indices 6..9 survive, 0..5 are gone.
  const auto lines = read_lines(path);
  EXPECT_EQ(count_containing(lines, "\"args\":{\"index\":9}"), 1);
  EXPECT_EQ(count_containing(lines, "\"args\":{\"index\":5}"), 0);
}

TEST(Tracing, StartClearsPreviouslyCollectedSpans) {
  tracing::start(16);
  { tracing::TraceSpan span("old", "task"); }
  EXPECT_EQ(tracing::recorded_spans(), 1u);
  tracing::start(16);
  EXPECT_EQ(tracing::recorded_spans(), 0u);
  tracing::stop();
}

TEST(Tracing, WriteThrowsOnUnwritablePath) {
  tracing::start(16);
  tracing::stop();
  EXPECT_THROW(tracing::write_chrome_trace("/nonexistent-dir/trace.json"),
               std::runtime_error);
}

TEST(Tracing, PoolWorkersEmitSpansAlongsideHistograms) {
  // A TraceSpan plus a histogram sample on worker threads: the pool items
  // each record one span and one sample, and the trace carries the item
  // spans injected by the pool itself (pool.item, tagged with the index).
  const std::string path = ::testing::TempDir() + "tracing_pool.json";
  TraceGuard guard(path);
  netgym::telemetry::Registry& reg = netgym::telemetry::Registry::instance();
  reg.reset_all();
  netgym::telemetry::Histogram& hist = reg.histogram("tracing_test.item");

  netgym::set_num_threads(4);
  tracing::start(1 << 12);
  netgym::parallel_for_each(32, [&](std::size_t i) {
    tracing::TraceSpan span("work", "task", static_cast<std::int64_t>(i));
    hist.record(static_cast<double>(i));
  });
  tracing::stop();
  netgym::set_num_threads(0);

  EXPECT_EQ(hist.snapshot().count, 32);
  tracing::write_chrome_trace(path);
  const auto lines = read_lines(path);
  EXPECT_EQ(count_containing(lines, "\"name\":\"work\""), 32);
  // The pool's own instrumentation wraps every item.
  EXPECT_EQ(count_containing(lines, "\"name\":\"pool.item\""), 32);
}

TEST(Tracing, ExceptionsPropagateOutOfTracedJobs) {
  // A throwing traced job must surface its exception through the pool, and
  // the tracer must remain usable afterwards.
  const std::string path = ::testing::TempDir() + "tracing_throw.json";
  TraceGuard guard(path);
  netgym::set_num_threads(4);
  tracing::start(1 << 12);
  EXPECT_THROW(netgym::parallel_for_each(8,
                                         [&](std::size_t i) {
                                           tracing::TraceSpan span("boom",
                                                                   "task");
                                           if (i == 3) {
                                             throw std::runtime_error("job");
                                           }
                                         }),
               std::runtime_error);
  netgym::set_num_threads(0);

  { tracing::TraceSpan span("after", "task"); }
  tracing::stop();
  tracing::write_chrome_trace(path);
  const auto lines = read_lines(path);
  EXPECT_EQ(count_containing(lines, "\"name\":\"after\""), 1);
}

}  // namespace
