#include "netgym/obs.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "netgym/checkpoint.hpp"
#include "netgym/flight.hpp"
#include "netgym/health.hpp"
#include "netgym/telemetry.hpp"
#include "netgym/tracing.hpp"

namespace netgym::obs {

Options parse(const flags::Args& args) {
  return {
      .log_file = args.text("log-file"),
      .trace_out = args.text("trace-out"),
      .flight_out = args.text("flight-out"),
      .flight_k = static_cast<int>(args.integer("flight-k")),
      .health_out = args.text("health-out"),
      .health_fail_fast = args.on("health-fail-fast"),
      .metrics_port = args.has("metrics-port")
                          ? static_cast<int>(args.integer("metrics-port"))
                          : -1,
      .metrics_port_file = args.text("metrics-port-file"),
      .metrics_out = args.text("metrics-out")};
}

Session::Session(Options options) : options_(std::move(options)) {
  const Options& o = options_;
  // The steps that can throw come first: a throw destroys endpoint_ and
  // leaves no other sink installed.
  if (o.metrics_port >= 0) {
    endpoint_.start(o.metrics_port);
    std::printf("metrics: listening on 127.0.0.1:%d\n", endpoint_.port());
    std::fflush(stdout);
    if (!o.metrics_port_file.empty()) {
      write_file_bytes(o.metrics_port_file,
                       std::to_string(endpoint_.port()) + "\n");
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
  // Attempt every output even when one fails; report the first failure.
  std::string failure;
  const auto attempt = [&](const auto& write) {
    try {
      write();
    } catch (const std::exception& e) {
      if (failure.empty()) failure = e.what();
    }
  };
  endpoint_.stop();
  if (!o.health_out.empty() || o.health_fail_fast) {
    health::Watchdog::instance().disable();
  }
  if (!o.log_file.empty() || !o.health_out.empty()) {
    const auto logger = telemetry::global_logger();
    telemetry::set_global_logger(nullptr);
    if (logger != nullptr) attempt([&] { logger->check(); });
  }
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
      const std::string table = telemetry::format_metrics_table();
      if (o.metrics_out == "-") {
        std::fputs(table.c_str(), stdout);
      } else {
        write_file_bytes(o.metrics_out, table);
      }
    });
  }
  if (!failure.empty()) throw std::runtime_error(failure);
}

}  // namespace netgym::obs
