// Metrics exposition tests (DESIGN.md S5j): the Prometheus text rendering
// must follow the exposition grammar (sanitized names, TYPE lines, summary
// quantiles), and the live endpoint must answer a real localhost GET with
// that rendering over HTTP. The endpoint is read-only and observational, so
// none of this touches training or serving state.

#include "netgym/exposition.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "netgym/telemetry.hpp"

namespace {

namespace telemetry = netgym::telemetry;

telemetry::Registry::Entry counter_entry(const std::string& name, double v) {
  telemetry::Registry::Entry e;
  e.name = name;
  e.kind = telemetry::Registry::Kind::kCounter;
  e.value = v;
  return e;
}

TEST(Exposition, CounterAndGaugeRenderWithSanitizedNames) {
  telemetry::Registry::Entry gauge;
  gauge.name = "serve.uptime-s";
  gauge.kind = telemetry::Registry::Kind::kGauge;
  gauge.value = 12.5;
  const std::string text = telemetry::render_prometheus(
      {counter_entry("dist.trace_spans_shipped", 42.0), gauge});
  EXPECT_NE(text.find("# TYPE dist_trace_spans_shipped counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("dist_trace_spans_shipped 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_uptime_s gauge\n"), std::string::npos);
  EXPECT_NE(text.find("serve_uptime_s 12.5\n"), std::string::npos);
}

TEST(Exposition, HistogramRendersAsSummaryWithQuantiles) {
  telemetry::Registry::Entry hist;
  hist.name = "serve.phase.total_s";
  hist.kind = telemetry::Registry::Kind::kHistogram;
  // Dyadic values render exactly under the %.17g shortest-round-trip
  // formatting, so the expectations can be literal substrings.
  hist.hist.count = 100;
  hist.hist.sum = 5.0;
  hist.hist.p50 = 0.03125;
  hist.hist.p90 = 0.0625;
  hist.hist.p99 = 0.125;
  hist.hist.p999 = 0.25;
  const std::string text = telemetry::render_prometheus({hist});
  EXPECT_NE(text.find("# TYPE serve_phase_total_s summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_phase_total_s{quantile=\"0.5\"} 0.03125\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_phase_total_s{quantile=\"0.99\"} 0.125\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_phase_total_s_sum 5\n"), std::string::npos);
  EXPECT_NE(text.find("serve_phase_total_s_count 100\n"), std::string::npos);
}

TEST(Exposition, NonFiniteAndHugeValuesRenderSafely) {
  // NaN/Inf gauges must come out as the Prometheus spellings (and must not
  // hit the integer fast path, whose double->i64 cast would be undefined
  // for them); finite values beyond i64 range take the %g branch.
  const double inf = std::numeric_limits<double>::infinity();
  const std::string text = telemetry::render_prometheus(
      {counter_entry("m_nan", std::nan("")), counter_entry("m_pinf", inf),
       counter_entry("m_ninf", -inf), counter_entry("m_huge", 1e300)});
  EXPECT_NE(text.find("m_nan NaN\n"), std::string::npos);
  EXPECT_NE(text.find("m_pinf +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("m_ninf -Inf\n"), std::string::npos);
  EXPECT_NE(text.find("e+300\n"), std::string::npos);
}

TEST(Exposition, EmptyHistogramOmitsQuantileSamples) {
  telemetry::Registry::Entry hist;
  hist.name = "x";
  hist.kind = telemetry::Registry::Kind::kHistogram;
  const std::string text = telemetry::render_prometheus({hist});
  EXPECT_EQ(text.find("quantile"), std::string::npos);
  EXPECT_NE(text.find("x_count 0\n"), std::string::npos);
}

/// A blocking TCP connection to 127.0.0.1:`port`.
int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

/// Plain blocking HTTP GET against 127.0.0.1:`port`; returns the full
/// response (status line + headers + body).
std::string http_get(int port) {
  const int fd = connect_local(port);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(Exposition, LiveEndpointServesRegistrySnapshotOverHttp) {
  telemetry::Registry::instance().counter("exposition_test.hits").add(7);
  telemetry::MetricsEndpoint endpoint;
  endpoint.start(0);  // ephemeral port
  ASSERT_TRUE(endpoint.running());
  ASSERT_GT(endpoint.port(), 0);

  const std::string response = http_get(endpoint.port());
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("# TYPE exposition_test_hits counter"),
            std::string::npos);
  EXPECT_NE(response.find("exposition_test_hits 7"), std::string::npos);

  // Multiple sequential scrapes must all be answered (the accept loop keeps
  // serving, one request per connection).
  EXPECT_NE(http_get(endpoint.port()).find("200 OK"), std::string::npos);

  endpoint.stop();
  EXPECT_FALSE(endpoint.running());
  endpoint.stop();  // idempotent
}

TEST(Exposition, StalledClientCannotWedgeTheEndpoint) {
  telemetry::MetricsEndpoint endpoint;
  endpoint.start(0);
  // Connect and send nothing: without a deadline on the request this parked
  // the single serving thread in read() forever, starving every later
  // scrape and hanging stop() in thread_.join().
  const int stalled = connect_local(endpoint.port());
  // A well-behaved scrape queued behind the stalled one must still be
  // answered (after the stalled request's 2 s deadline), and stop() must
  // return rather than hang.
  EXPECT_NE(http_get(endpoint.port()).find("200 OK"), std::string::npos);
  endpoint.stop();
  EXPECT_FALSE(endpoint.running());
  ::close(stalled);
}

TEST(Exposition, TrickleScraperCannotHoldStop) {
  // One byte every 100 ms never completes a request head. A per-read
  // timeout restarted with every byte, so stop() waited out the whole
  // trickle; one deadline per request with the wake pipe in the same poll
  // lets stop() return at once.
  telemetry::MetricsEndpoint endpoint;
  endpoint.start(0);
  const int fd = connect_local(endpoint.port());
  std::atomic<bool> done{false};
  std::thread trickle([&] {
    for (int i = 0; i < 50 && !done.load(); ++i) {  // at most 5 s
      if (::send(fd, "G", 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto t0 = std::chrono::steady_clock::now();
  endpoint.stop();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  done = true;
  trickle.join();
  ::close(fd);
  EXPECT_LT(took.count(), 1.0) << "stop() waited on a trickling scraper";
}

TEST(Exposition, StartRejectsUnbindablePort) {
  telemetry::MetricsEndpoint a;
  a.start(0);
  telemetry::MetricsEndpoint b;
  EXPECT_THROW(b.start(a.port()), std::runtime_error);
  a.stop();
}

}  // namespace
