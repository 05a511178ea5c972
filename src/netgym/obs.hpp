#pragma once

#include <string>

#include "netgym/exposition.hpp"
#include "netgym/flags.hpp"

namespace netgym::obs {

// The observability front door (DESIGN.md S5c). A run's evidence -- the JSONL
// run log, the Chrome span trace, the worst-k flight recording, the
// training-health stream and the metrics endpoint/dump -- comes from five
// process-global sinks. Entry points (the `genet` CLI, `genet_serve`, the
// bench harnesses) resolve one Options and hold one Session for the run.
// Every sink is strictly observational: results are bit-identical with any
// knob on or off, at any thread or worker count.

/// The observability flags, declared once; every front end's flag table
/// includes them.
inline constexpr flags::Flag kFlags[] = {
    flags::text("log-file", "", "JSONL run log", "GENET_LOG"),
    flags::text("trace-out", "", "Chrome span trace at exit", "GENET_TRACE"),
    flags::text("flight-out", "", "worst-k episodes, JSONL", "GENET_FLIGHT"),
    flags::integer("flight-k", 1, 1 << 20, "8", "episodes kept",
                   "GENET_FLIGHT_K"),
    flags::text("health-out", "", "health watchdog JSONL (a run log wins)",
                "GENET_HEALTH"),
    flags::toggle("health-fail-fast", "watchdog on; abort on non-finite values",
                  "GENET_HEALTH_FAIL_FAST"),
    flags::integer("metrics-port", 0, 65535, nullptr,
                   "Prometheus scrape port, 0 = any (default: off)",
                   "GENET_METRICS_PORT"),
    flags::text("metrics-port-file", "", "write the bound metrics port here"),
    flags::text("metrics-out", "", "final metrics table ('-' = stdout)"),
};

/// One field per observability knob.
struct Options {
  std::string log_file;           ///< --log-file / GENET_LOG
  std::string trace_out;          ///< --trace-out / GENET_TRACE
  std::string flight_out;         ///< --flight-out / GENET_FLIGHT
  int flight_k = 8;               ///< --flight-k / GENET_FLIGHT_K, 1..2^20
  std::string health_out;         ///< --health-out / GENET_HEALTH
  bool health_fail_fast = false;  ///< --health-fail-fast / ..._FAIL_FAST=0|1
  int metrics_port = -1;          ///< --metrics-port / GENET_METRICS_PORT
                                  ///< (-1 = off)
  std::string metrics_port_file;  ///< --metrics-port-file
  std::string metrics_out;        ///< --metrics-out ('-' = stdout)
};

/// The Options of a parsed table that includes kFlags.
Options parse(const flags::Args& args);

/// Installs every sink the Options name: the metrics endpoint, the run log
/// (--log-file, else --health-out), the span tracer, the flight recorder and
/// the health watchdog. close() -- or the destructor, also during exception
/// unwinding -- uninstalls them, checks the run log for a failed write and
/// writes the trace, the flight recording and --metrics-out. Construct once
/// per process, in a serial section, before any work starts.
class Session {
 public:
  explicit Session(Options options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Flush and uninstall every sink now; later calls are no-ops. Throws
  /// std::runtime_error when an output cannot be written (the destructor
  /// reports such failures on stderr instead). Serial sections only.
  void close();

 private:
  Options options_;
  bool closed_ = false;
  telemetry::MetricsEndpoint endpoint_;
};

}  // namespace netgym::obs
