#include "netgym/health.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "netgym/telemetry.hpp"

namespace {

namespace health = netgym::health;
namespace tel = netgym::telemetry;

/// Enables the watchdog for one test and guarantees it is disabled and wiped
/// on the way out (the watchdog is process-global; a leaked enable would
/// silently change what later tests compute).
struct WatchdogGuard {
  explicit WatchdogGuard(health::Options options) {
    health::Watchdog::instance().reset();
    health::Watchdog::instance().enable(options);
  }
  ~WatchdogGuard() {
    health::Watchdog::instance().disable();
    health::Watchdog::instance().reset();
  }
};

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

/// A healthy-looking update at `step`.
health::IterationHealth healthy(std::int64_t step) {
  health::IterationHealth h;
  h.step = step;
  h.mean_entropy = 1.0;
  h.mean_episode_reward = static_cast<double>(step);  // keeps improving
  h.actor_grad_norm = 1.0;
  h.actor_grad_norm_clipped = 1.0;
  h.critic_grad_norm = 2.0;
  h.critic_grad_norm_clipped = 2.0;
  h.approx_kl = 0.01;
  h.explained_variance = 0.5;
  return h;
}

TEST(Watchdog, DisabledWatchdogIgnoresObservations) {
  health::Watchdog& dog = health::Watchdog::instance();
  dog.disable();
  dog.reset();
  EXPECT_FALSE(health::enabled());
  dog.observe(healthy(0));
  EXPECT_EQ(dog.checks(), 0u);
  EXPECT_EQ(dog.alerts(), 0u);
}

TEST(Watchdog, CountsChecksAndStaysQuietOnHealthyInput) {
  WatchdogGuard guard({});
  health::Watchdog& dog = health::Watchdog::instance();
  for (int i = 0; i < 5; ++i) dog.observe(healthy(i));
  EXPECT_EQ(dog.checks(), 5u);
  EXPECT_EQ(dog.alerts(), 0u);
}

TEST(Watchdog, NonFiniteAlertsAndThrowsOnlyUnderFailFast) {
  health::IterationHealth bad = healthy(3);
  bad.non_finite = true;
  bad.non_finite_what = "actor parameters";

  {
    WatchdogGuard guard({});  // fail_fast off: alert but keep going
    health::Watchdog& dog = health::Watchdog::instance();
    EXPECT_NO_THROW(dog.observe(bad));
    EXPECT_EQ(dog.alerts(), 1u);
  }
  {
    health::Options options;
    options.fail_fast = true;
    WatchdogGuard guard(options);
    health::Watchdog& dog = health::Watchdog::instance();
    try {
      dog.observe(bad);
      FAIL() << "expected HealthError";
    } catch (const health::HealthError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("iteration 3"), std::string::npos) << what;
      EXPECT_NE(what.find("actor parameters"), std::string::npos) << what;
    }
    // The alert was still recorded before the throw -- the evidence must
    // outlive the abort.
    EXPECT_EQ(dog.alerts(), 1u);
  }
}

TEST(Watchdog, EntropyCollapseFiresOnTransitionNotEveryIteration) {
  health::Options options;
  options.entropy_floor = 0.1;
  WatchdogGuard guard(options);
  health::Watchdog& dog = health::Watchdog::instance();

  health::IterationHealth h = healthy(0);
  dog.observe(h);  // above floor
  EXPECT_EQ(dog.alerts(), 0u);

  for (int i = 1; i <= 3; ++i) {  // three iterations below the floor
    h = healthy(i);
    h.mean_entropy = 0.05;
    dog.observe(h);
  }
  EXPECT_EQ(dog.alerts(), 1u);  // one excursion, one alert

  h = healthy(4);  // recovers...
  dog.observe(h);
  h = healthy(5);  // ...and collapses again: a second alert
  h.mean_entropy = 0.01;
  dog.observe(h);
  EXPECT_EQ(dog.alerts(), 2u);
}

TEST(Watchdog, RewardStallFiresOncePerStall) {
  health::Options options;
  options.reward_stall_iters = 3;
  WatchdogGuard guard(options);
  health::Watchdog& dog = health::Watchdog::instance();

  health::IterationHealth h = healthy(0);
  h.mean_episode_reward = 10.0;
  dog.observe(h);
  for (int i = 1; i <= 5; ++i) {  // no improvement for 5 iterations
    h = healthy(i);
    h.mean_episode_reward = 5.0;
    dog.observe(h);
  }
  EXPECT_EQ(dog.alerts(), 1u);  // fired at step 3, then stayed quiet

  h = healthy(6);  // a new best resets the stall clock
  h.mean_episode_reward = 20.0;
  dog.observe(h);
  for (int i = 7; i <= 10; ++i) {
    h = healthy(i);
    h.mean_episode_reward = 5.0;
    dog.observe(h);
  }
  EXPECT_EQ(dog.alerts(), 2u);
}

TEST(Watchdog, GradSpikeComparesAgainstRollingMean) {
  health::Options options;
  options.grad_spike_factor = 5.0;
  options.grad_window = 4;
  options.reward_stall_iters = 0;  // isolate the spike rule
  WatchdogGuard guard(options);
  health::Watchdog& dog = health::Watchdog::instance();

  for (int i = 0; i < 4; ++i) {  // fill the window with norm 1.0
    dog.observe(healthy(i));
  }
  EXPECT_EQ(dog.alerts(), 0u);

  health::IterationHealth spike = healthy(4);
  spike.actor_grad_norm = 10.0;  // 10x the rolling mean of 1.0
  dog.observe(spike);
  EXPECT_EQ(dog.alerts(), 1u);

  // 4.0 is below 5x the (now spike-contaminated) rolling mean: no new alert.
  health::IterationHealth calm = healthy(5);
  calm.actor_grad_norm = 4.0;
  dog.observe(calm);
  EXPECT_EQ(dog.alerts(), 1u);
}

TEST(Watchdog, EmitsHealthAndAlertRecordsToTheJsonlStream) {
  const std::string path = ::testing::TempDir() + "health_watchdog_test.jsonl";
  LogFileGuard log_guard(path);
  tel::open_global_logger(path);

  health::Options options;
  options.entropy_floor = 0.1;
  WatchdogGuard guard(options);
  health::Watchdog& dog = health::Watchdog::instance();
  dog.observe(healthy(0));
  health::IterationHealth collapsed = healthy(1);
  collapsed.mean_entropy = 0.01;
  dog.observe(collapsed);
  tel::set_global_logger(nullptr);

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);  // health, health, alert
  EXPECT_NE(lines[0].find("\"type\":\"health\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"actor_grad_norm\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"approx_kl\":0.01"), std::string::npos);
  EXPECT_NE(lines[1].find("\"mean_entropy\":0.01"), std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"alert\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\":\"entropy_collapse\""),
            std::string::npos);
  EXPECT_NE(lines[2].find("\"step\":1"), std::string::npos);
}

TEST(Watchdog, MetricsLandInTheRegistry) {
  tel::Registry::instance().reset_all();
  WatchdogGuard guard({});
  health::Watchdog& dog = health::Watchdog::instance();
  dog.observe(healthy(0));
  dog.observe(healthy(1));
  EXPECT_EQ(tel::Registry::instance().counter("health.checks").value(), 2);
  EXPECT_EQ(
      tel::Registry::instance().histogram("rl.actor_grad_norm").count(), 2u);
  EXPECT_DOUBLE_EQ(
      tel::Registry::instance().gauge("health.mean_entropy").value(), 1.0);
}

}  // namespace
