#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "netgym/telemetry.hpp"

namespace netgym::telemetry {

// Live metrics exposition (DESIGN.md S5j): a read-only, localhost-only ops
// endpoint rendering the telemetry Registry in Prometheus text exposition
// format, so a long training run or the serving daemon can be scraped
// mid-flight without touching log files.
//
// Threat model / contract: the listener binds 127.0.0.1 only, never parses
// request bodies beyond discarding the header block, and answers every
// request with the same read-only snapshot rendering -- there is no write
// surface. Strictly observational: serving a scrape takes Registry::snapshot
// (already concurrency-safe), never draws RNG and never touches training or
// serving state, so runs with the endpoint enabled are bit-identical to runs
// without it at any thread or worker count.

/// Render Registry entries as Prometheus text exposition: `# TYPE` comments
/// followed by samples. Metric names are sanitized ('.' and '-' become '_');
/// counters and gauges map directly, histograms render as summaries
/// (quantile-labelled samples plus `_sum`/`_count`).
std::string render_prometheus(const std::vector<Registry::Entry>& entries);

/// render_prometheus(Registry::instance().snapshot()).
std::string scrape_prometheus();

/// Minimal HTTP/1.0 listener serving scrape_prometheus() on every request.
class MetricsEndpoint {
 public:
  MetricsEndpoint() = default;
  ~MetricsEndpoint() { stop(); }

  MetricsEndpoint(const MetricsEndpoint&) = delete;
  MetricsEndpoint& operator=(const MetricsEndpoint&) = delete;

  /// Bind 127.0.0.1:`port` (0 picks an ephemeral port) and start the accept
  /// thread. Throws std::runtime_error if the socket cannot be bound.
  void start(int port);

  /// Close the listener and join the accept thread. Idempotent.
  void stop();

  /// The bound TCP port (resolves the ephemeral port when started with 0);
  /// 0 when not running.
  int port() const { return port_; }

  bool running() const { return fd_ >= 0; }

 private:
  void serve_loop(int wake_fd);

  int fd_ = -1;
  int stop_fd_ = -1;  ///< write end of the self-pipe waking the accept loop
  int port_ = 0;
  std::thread thread_;
};

}  // namespace netgym::telemetry
