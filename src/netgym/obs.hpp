#pragma once

#include <map>
#include <string>
#include <string_view>

#include "netgym/exposition.hpp"

namespace netgym::obs {

// The observability front door (DESIGN.md S5c). A run's evidence -- the JSONL
// run log, the Chrome span trace, the worst-k flight recording, the
// training-health stream and the metrics endpoint/dump -- comes from five
// process-global sinks. Entry points (the `genet` CLI, `genet_serve`, the
// bench harnesses) parse one Options and hold one Session for the run.
// Every sink is strictly observational: results are bit-identical with any
// knob on or off, at any thread or worker count.

/// Command-line flags by name, without the leading "--". A switch is on when
/// present, whatever its value.
using Flags = std::map<std::string, std::string>;

/// One field per observability knob. Each is resolved on its own: the flag
/// if given, else the environment variable, else the default.
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

/// Resolve every knob from `flags` and the environment through the strict
/// netgym::parse_* helpers. Garbage or out-of-range values throw
/// std::invalid_argument naming the flag or variable.
Options parse(const Flags& flags);

/// True when `name` is one of the flags parse() reads.
bool is_flag(std::string_view name);

/// True for the one observability flag that takes no value.
inline bool is_switch(std::string_view name) {
  return name == "health-fail-fast";
}

/// Usage text for the flags above, shared by every entry point's help.
extern const char* const kUsage;

/// Installs every sink the Options name: the metrics endpoint, the run log
/// (--log-file, else --health-out), the span tracer, the flight recorder and
/// the health watchdog. close() -- or the destructor, also during exception
/// unwinding -- uninstalls them and writes the trace, the flight recording
/// and --metrics-out. Construct once per process, in a serial section,
/// before any work starts.
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
