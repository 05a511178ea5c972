#include "netgym/obs.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "netgym/flight.hpp"
#include "netgym/health.hpp"
#include "netgym/parse.hpp"
#include "netgym/telemetry.hpp"
#include "netgym/tracing.hpp"

namespace netgym::obs {

namespace {

constexpr std::array<std::string_view, 9> kFlagNames = {
    "log-file",     "trace-out",         "flight-out",
    "flight-k",     "health-out",        "health-fail-fast",
    "metrics-port", "metrics-port-file", "metrics-out"};

/// Write `text` to `path`, or to stdout when `path` is "-".
void write_text(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return;
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
}

}  // namespace

const char* const kUsage = R"(
observability (each flag but the last two defaults to its env var):
  --log-file F          JSONL run log (GENET_LOG)
  --trace-out F         Chrome trace-event span profile (GENET_TRACE)
  --flight-out F        JSONL steps of the worst-k episodes (GENET_FLIGHT)
  --flight-k N          episodes kept, 1..1048576 (GENET_FLIGHT_K, default 8)
  --health-out F        training-health watchdog and its JSONL stream; a
                        --log-file sink takes the records instead (GENET_HEALTH)
  --health-fail-fast    watchdog on; exit nonzero on any non-finite value
                        (GENET_HEALTH_FAIL_FAST=0|1)
  --metrics-port P      live Prometheus scrape on 127.0.0.1:P, 0 picks a port
                        (GENET_METRICS_PORT)
  --metrics-port-file F write the bound metrics port to F
  --metrics-out F       final metrics table at exit ('-' = stdout)
Bad values fail naming the knob. Every sink is strictly observational:
results are bit-identical with any of them on or off.
)";

Options parse(const Flags& flags) {
  const auto text = [&](const char* flag, const char* env) -> std::string {
    if (const auto it = flags.find(flag); it != flags.end()) return it->second;
    const char* value = env != nullptr ? std::getenv(env) : nullptr;
    return value != nullptr ? value : "";
  };
  const auto integer = [&](const char* flag, const char* env, int fallback,
                           int lo, int hi) {
    if (const auto it = flags.find(flag); it != flags.end()) {
      const std::string what = std::string("--") + flag;
      return static_cast<int>(
          parse_i64_in_range(what.c_str(), it->second, lo, hi));
    }
    return static_cast<int>(env_i64(env, fallback, lo, hi));
  };
  Options o;
  o.log_file = text("log-file", "GENET_LOG");
  o.trace_out = text("trace-out", "GENET_TRACE");
  o.flight_out = text("flight-out", "GENET_FLIGHT");
  o.flight_k = integer("flight-k", "GENET_FLIGHT_K", 8, 1, 1 << 20);
  o.health_out = text("health-out", "GENET_HEALTH");
  o.health_fail_fast =
      flags.count("health-fail-fast") != 0U ||
      env_i64("GENET_HEALTH_FAIL_FAST", 0, 0, 1) == 1;
  o.metrics_port =
      integer("metrics-port", "GENET_METRICS_PORT", -1, 0, 65535);
  o.metrics_port_file = text("metrics-port-file", nullptr);
  o.metrics_out = text("metrics-out", nullptr);
  return o;
}

bool is_flag(std::string_view name) {
  return std::find(kFlagNames.begin(), kFlagNames.end(), name) !=
         kFlagNames.end();
}

Session::Session(Options options) : options_(std::move(options)) {
  // Construct the singletons close() touches before this object finishes
  // constructing, so a Session with static storage duration (the benches')
  // is destroyed before they are.
  telemetry::Registry::instance();
  health::Watchdog::instance();
  flight::Recorder::instance();

  const Options& o = options_;
  // The steps that can throw come first: a throw destroys endpoint_ and
  // leaves no other sink installed.
  if (o.metrics_port >= 0) {
    endpoint_.start(o.metrics_port);
    std::printf("metrics: listening on 127.0.0.1:%d\n", endpoint_.port());
    std::fflush(stdout);
    if (!o.metrics_port_file.empty()) {
      write_text(o.metrics_port_file, std::to_string(endpoint_.port()) + "\n");
    }
  }
  const std::string& sink = o.log_file.empty() ? o.health_out : o.log_file;
  if (!sink.empty()) {
    telemetry::open_global_logger(sink);
    if (!o.log_file.empty() && !o.health_out.empty()) {
      std::fprintf(stderr,
                   "note: a run log is already installed; health records "
                   "flow there, --health-out path ignored\n");
    }
  }
  if (!o.trace_out.empty()) tracing::start();
  if (!o.flight_out.empty()) flight::Recorder::instance().enable(o.flight_k);
  if (!o.health_out.empty() || o.health_fail_fast) {
    health::Options watchdog;
    watchdog.fail_fast = o.health_fail_fast;
    health::Watchdog::instance().enable(watchdog);
  }
}

Session::~Session() {
  try {
    close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
}

void Session::close() {
  if (closed_) return;
  closed_ = true;
  const Options& o = options_;
  endpoint_.stop();
  if (!o.health_out.empty() || o.health_fail_fast) {
    health::Watchdog::instance().disable();
  }
  if (!o.log_file.empty() || !o.health_out.empty()) {
    telemetry::set_global_logger(nullptr);
  }
  // Attempt every output even when one fails; report the first failure.
  std::string failure;
  const auto attempt = [&](const auto& write) {
    try {
      write();
    } catch (const std::exception& e) {
      if (failure.empty()) failure = e.what();
    }
  };
  if (!o.trace_out.empty()) {
    tracing::stop();
    attempt([&] { tracing::write_chrome_trace(o.trace_out); });
  }
  if (!o.flight_out.empty()) {
    flight::Recorder::instance().disable();
    attempt([&] { flight::Recorder::instance().write_jsonl(o.flight_out); });
  }
  if (!o.metrics_out.empty()) {
    attempt([&] {
      write_text(o.metrics_out, telemetry::format_metrics_table());
    });
  }
  if (!failure.empty()) throw std::runtime_error(failure);
}

}  // namespace netgym::obs
