#include "netgym/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netgym/flags.hpp"
#include "netgym/flight.hpp"
#include "netgym/health.hpp"
#include "netgym/telemetry.hpp"
#include "netgym/tracing.hpp"

namespace {

namespace obs = netgym::obs;
namespace tel = netgym::telemetry;
namespace health = netgym::health;

/// Clears every observability variable, sets `vars`, and clears them all
/// again on the way out, so the ambient environment cannot leak in.
class EnvGuard {
 public:
  explicit EnvGuard(
      std::initializer_list<std::pair<const char*, const char*>> vars = {}) {
    clear();
    for (const auto& [name, value] : vars) ::setenv(name, value, 1);
  }
  ~EnvGuard() { clear(); }

 private:
  static void clear() {
    for (const char* name :
         {"GENET_LOG", "GENET_TRACE", "GENET_FLIGHT", "GENET_FLIGHT_K",
          "GENET_HEALTH", "GENET_HEALTH_FAIL_FAST", "GENET_METRICS_PORT"}) {
      ::unsetenv(name);
    }
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// obs::Options from `tokens` parsed against the observability table.
obs::Options parse(const std::vector<std::string>& tokens) {
  return obs::parse(netgym::flags::Args({obs::kFlags}, tokens));
}

/// The message of the flags::Error parse(tokens) throws.
std::string parse_error(const std::vector<std::string>& tokens) {
  try {
    parse(tokens);
  } catch (const netgym::flags::Error& e) {
    return e.what();
  }
  return "";
}

TEST(ObsOptions, DefaultsWhenNothingIsSet) {
  EnvGuard env;
  const obs::Options o = parse({});
  EXPECT_TRUE(o.log_file.empty());
  EXPECT_TRUE(o.trace_out.empty());
  EXPECT_TRUE(o.flight_out.empty());
  EXPECT_EQ(o.flight_k, 8);
  EXPECT_TRUE(o.health_out.empty());
  EXPECT_FALSE(o.health_fail_fast);
  EXPECT_EQ(o.metrics_port, -1);
  EXPECT_TRUE(o.metrics_port_file.empty());
  EXPECT_TRUE(o.metrics_out.empty());
}

TEST(ObsOptions, EachKnobResolvesFlagThenEnvOnItsOwn) {
  EnvGuard env({{"GENET_FLIGHT", "env_flight.jsonl"},
                {"GENET_FLIGHT_K", "2"},
                {"GENET_LOG", "env_log.jsonl"},
                {"GENET_METRICS_PORT", "9100"}});
  // The path comes from the flag, the count from the env var.
  obs::Options o = parse({"--flight-out", "flag_flight.jsonl"});
  EXPECT_EQ(o.flight_out, "flag_flight.jsonl");
  EXPECT_EQ(o.flight_k, 2);
  EXPECT_EQ(o.log_file, "env_log.jsonl");
  EXPECT_EQ(o.metrics_port, 9100);
  // A flag beats its env var.
  o = parse({"--flight-k", "3", "--metrics-port", "0"});
  EXPECT_EQ(o.flight_out, "env_flight.jsonl");
  EXPECT_EQ(o.flight_k, 3);
  EXPECT_EQ(o.metrics_port, 0);
}

TEST(ObsOptions, FlightKFlagAndEnvShareOneRange) {
  {
    EnvGuard env;
    EXPECT_NE(parse_error({"--flight-k", "0"}).find("--flight-k"),
              std::string::npos);
    EXPECT_NE(parse_error({"--flight-k", "-3"}).find("out of range"),
              std::string::npos);
    EXPECT_EQ(parse({"--flight-k", "1048576"}).flight_k, 1 << 20);
    EXPECT_NE(parse_error({"--flight-k", "1048577"}), "");
  }
  EnvGuard env({{"GENET_FLIGHT_K", "0"}});
  EXPECT_NE(parse_error({}).find("GENET_FLIGHT_K: value 0 out of range"),
            std::string::npos);
}

TEST(ObsOptions, HealthFailFastIsStrictlyZeroOrOne) {
  {
    EnvGuard env({{"GENET_HEALTH_FAIL_FAST", "false"}});
    EXPECT_NE(parse_error({}).find("GENET_HEALTH_FAIL_FAST"),
              std::string::npos);
  }
  {
    EnvGuard env({{"GENET_HEALTH_FAIL_FAST", "0"}});
    EXPECT_FALSE(parse({}).health_fail_fast);
  }
  {
    EnvGuard env({{"GENET_HEALTH_FAIL_FAST", "1"}});
    EXPECT_TRUE(parse({}).health_fail_fast);
  }
  // The switch beats the env var.
  EnvGuard env({{"GENET_HEALTH_FAIL_FAST", "0"}});
  EXPECT_TRUE(parse({"--health-fail-fast"}).health_fail_fast);
}

TEST(ObsOptions, FlagNamesAndTheOneSwitch) {
  const auto kind_of = [](std::string_view name) {
    for (const netgym::flags::Flag& flag : obs::kFlags) {
      if (flag.name == name) return std::optional(flag.kind);
    }
    return std::optional<netgym::flags::Kind>();
  };
  for (const char* name :
       {"log-file", "trace-out", "flight-out", "flight-k", "health-out",
        "health-fail-fast", "metrics-port", "metrics-port-file",
        "metrics-out"}) {
    EXPECT_TRUE(kind_of(name).has_value()) << name;
  }
  EXPECT_EQ(std::size(obs::kFlags), 9U);
  EXPECT_FALSE(kind_of("threads").has_value());
  EXPECT_EQ(kind_of("health-fail-fast"), netgym::flags::Kind::kSwitch);
  EXPECT_NE(kind_of("health-out"), netgym::flags::Kind::kSwitch);
}

// Moved from the watchdog's own env installer: GENET_HEALTH both enables the
// watchdog and names its JSONL sink, and GENET_HEALTH_FAIL_FAST=1 turns on
// fail-fast.
TEST(ObsSession, HealthEnvEnablesTheWatchdogAndItsSink) {
  {
    EnvGuard env;
    obs::Session session(parse({}));
    EXPECT_FALSE(health::enabled());
    EXPECT_FALSE(tel::logging_enabled());
  }
  const std::string path = ::testing::TempDir() + "obs_health_env.jsonl";
  {
    EnvGuard env({{"GENET_HEALTH", path.c_str()},
                  {"GENET_HEALTH_FAIL_FAST", "1"}});
    obs::Session session(parse({}));
    EXPECT_TRUE(health::enabled());
    EXPECT_TRUE(health::Watchdog::instance().options().fail_fast);
    EXPECT_TRUE(tel::logging_enabled());  // the env var also named the sink
  }
  // The Session uninstalls what it installed.
  EXPECT_FALSE(health::enabled());
  EXPECT_FALSE(tel::logging_enabled());
  health::Watchdog::instance().reset();
  std::remove(path.c_str());
}

TEST(ObsSession, CloseWritesTraceFlightAndMetricsTable) {
  EnvGuard env;
  const std::string dir = ::testing::TempDir();
  obs::Options o;
  o.trace_out = dir + "obs_session_trace.json";
  o.flight_out = dir + "obs_session_flight.jsonl";
  o.flight_k = 1;
  o.metrics_out = dir + "obs_session_metrics.txt";
  netgym::flight::Recorder::instance().reset();
  {
    obs::Session session(o);
    EXPECT_TRUE(netgym::tracing::enabled());
    EXPECT_TRUE(netgym::flight::Recorder::instance().enabled());
    { netgym::tracing::TraceSpan span("obs.test", "test"); }
    for (double reward : {1.0, -1.0}) {
      auto capture = netgym::flight::begin_episode("lb", {"backlog_s"});
      capture->add(0, reward, {0.5});
      netgym::flight::submit(std::move(capture));
    }
    tel::Registry::instance().counter("obs.test_counter").add();
    session.close();
    EXPECT_FALSE(netgym::tracing::enabled());
    EXPECT_FALSE(netgym::flight::Recorder::instance().enabled());
    session.close();  // idempotent
  }
  EXPECT_NE(slurp(o.trace_out).find("\"obs.test\""), std::string::npos);
  const std::string flight = slurp(o.flight_out);
  EXPECT_EQ(std::count(flight.begin(), flight.end(), '\n'), 1);  // k = 1
  EXPECT_NE(flight.find("\"mean_reward\":-1"), std::string::npos);
  EXPECT_NE(slurp(o.metrics_out).find("obs.test_counter"), std::string::npos);
  netgym::flight::Recorder::instance().reset();
  for (const auto& path : {o.trace_out, o.flight_out, o.metrics_out}) {
    std::remove(path.c_str());
  }
}

TEST(ObsSession, CloseReportsAnUnwritableOutput) {
  EnvGuard env;
  // A missing directory fails the open; /dev/full fails every write.
  std::vector<std::string> paths = {::testing::TempDir() + "no_such_dir/out"};
  if (std::filesystem::exists("/dev/full")) paths.emplace_back("/dev/full");
  const std::pair<const char*, std::string obs::Options::*> outputs[] = {
      {"trace", &obs::Options::trace_out},
      {"flight recording", &obs::Options::flight_out},
      {"metrics table", &obs::Options::metrics_out},
      {"run log", &obs::Options::log_file}};
  for (const auto& [output, field] : outputs) {
    for (const std::string& path : paths) {
      obs::Options o;
      o.*field = path;
      o.flight_k = 1;
      netgym::flight::Recorder::instance().reset();
      bool opened = false;
      std::string error;
      try {
        obs::Session session(o);
        opened = true;
        { netgym::tracing::TraceSpan span("obs.test", "test"); }
        tel::log_event("obs_test", 0, {{"i", std::int64_t{1}}});
        if (auto capture = netgym::flight::begin_episode("lb", {"x"})) {
          capture->add(0, 1.0, {0.5});
          netgym::flight::submit(std::move(capture));
        }
        session.close();
      } catch (const std::runtime_error& e) {
        error = e.what();
      }
      EXPECT_NE(error.find("'" + path + "'"), std::string::npos)
          << output << " to " << path << ": \"" << error << "\"";
      // A run log in a missing directory fails when the Session opens it,
      // before any work starts; every other case fails in close().
      EXPECT_EQ(opened, field != &obs::Options::log_file || path == "/dev/full")
          << output << " to " << path;
    }
  }
  netgym::flight::Recorder::instance().reset();
}

}  // namespace
