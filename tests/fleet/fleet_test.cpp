// Fleet simulator (DESIGN.md S5h): the determinism contract (bit-identical
// results at any thread count), SLO accounting, the default scenario mixes,
// up-front validation, and the committed worst-k flight fixture.

#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/report.hpp"
#include "netgym/parallel.hpp"
#include "netgym/rng.hpp"
#include "rl/policy.hpp"

namespace {

rl::MlpPolicy test_policy(const std::string& task, std::uint64_t seed = 11) {
  netgym::Rng rng(seed);
  rl::MlpPolicy policy(fleet::task_obs_size(task),
                       fleet::task_action_count(task), {16, 16}, rng);
  policy.set_greedy(true);
  return policy;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Restore the default-sized pool no matter how a test exits.
struct ThreadGuard {
  ~ThreadGuard() { netgym::set_num_threads(0); }
};

TEST(FleetMeta, MetricNamesAndShapesPerTask) {
  EXPECT_EQ(fleet::metric_names("abr"),
            (std::vector<std::string>{"episode_reward", "rebuffer_s",
                                      "bitrate_mbps"}));
  EXPECT_EQ(fleet::metric_names("cc"),
            (std::vector<std::string>{"episode_reward", "queue_delay_s",
                                      "throughput_mbps"}));
  EXPECT_EQ(fleet::metric_names("lb"),
            (std::vector<std::string>{"episode_reward", "job_slowdown",
                                      "job_delay_s"}));
  EXPECT_THROW(fleet::metric_names("dns"), std::invalid_argument);
  EXPECT_GT(fleet::task_obs_size("abr"), 0);
  EXPECT_GT(fleet::task_action_count("cc"), 0);
  EXPECT_THROW(fleet::task_obs_size("dns"), std::invalid_argument);
}

TEST(FleetMeta, SloOpNames) {
  EXPECT_STREQ(fleet::slo_op_name(fleet::SloOp::kAtMost), "<=");
  EXPECT_STREQ(fleet::slo_op_name(fleet::SloOp::kAtLeast), ">=");
}

TEST(FleetMeta, DefaultScenariosSplitEverySession) {
  for (const char* task : {"abr", "cc", "lb"}) {
    const auto scenarios = fleet::default_scenarios(task, 10'000, 0.5);
    ASSERT_GE(scenarios.size(), 2u) << task;
    std::int64_t total = 0;
    for (const auto& sc : scenarios) {
      EXPECT_EQ(sc.task, task);
      EXPECT_GT(sc.sessions, 0) << sc.name;
      EXPECT_FALSE(sc.slos.empty()) << sc.name;
      EXPECT_FALSE(sc.devices.empty()) << sc.name;
      total += sc.sessions;
    }
    EXPECT_EQ(total, 10'000) << task;
  }
  EXPECT_THROW(fleet::default_scenarios("dns", 100, 0.5),
               std::invalid_argument);
}

TEST(FleetRun, BitIdenticalDigestAcrossThreadCounts) {
  // The tentpole contract: fixed shard partition + serial RNG forks +
  // fixed-size lockstep groups + shard-ordered histogram merge make every
  // output float independent of the pool size -- for every task, including
  // the ABR and CC mixes that replay recorded traces. The pool here is
  // oversubscribed (the CI box may have a single core) which also shakes
  // out schedule dependence.
  ThreadGuard guard;
  for (const char* task : {"abr", "cc", "lb"}) {
    const rl::MlpPolicy policy = test_policy(task);
    const auto scenarios = fleet::default_scenarios(task, 300, 0.5);
    fleet::FleetOptions opts;
    opts.seed = 5;
    opts.shards = 16;
    opts.out_dir = "";  // flight capture off: pure compute path
    std::string digests[2];
    const int threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      netgym::set_num_threads(threads[i]);
      digests[i] = fleet::canonical_digest(run_fleet(policy, scenarios, opts));
    }
    EXPECT_EQ(digests[0], digests[1]) << task;
    EXPECT_NE(digests[0].find("fleet-digest v1"), std::string::npos) << task;
  }
}

TEST(FleetRun, ShardCountIsPartOfTheContractNotATuningKnob) {
  // Different shard counts legitimately produce different streams; the
  // digest must change, proving shards are pinned inputs rather than an
  // invisible implementation detail.
  const rl::MlpPolicy policy = test_policy("lb");
  const auto scenarios = fleet::default_scenarios("lb", 200, 0.0);
  fleet::FleetOptions a;
  a.seed = 5;
  a.shards = 8;
  fleet::FleetOptions b = a;
  b.shards = 32;
  EXPECT_NE(fleet::canonical_digest(run_fleet(policy, scenarios, a)),
            fleet::canonical_digest(run_fleet(policy, scenarios, b)));
}

TEST(FleetRun, SloAccountingMatchesHistogramPopulation) {
  const rl::MlpPolicy policy = test_policy("lb");
  fleet::Scenario sc;
  sc.name = "slo_math";
  sc.task = "lb";
  sc.sessions = 300;
  sc.max_steps = 64;
  // One SLO that everything satisfies, one that nothing can.
  sc.slos.push_back({"job_slowdown", fleet::SloOp::kAtMost, 1e12, 0.5});
  sc.slos.push_back({"job_slowdown", fleet::SloOp::kAtLeast, 1e12, 0.5});
  const fleet::FleetResult result =
      fleet::run_fleet(policy, {sc}, fleet::FleetOptions{});
  ASSERT_EQ(result.scenarios.size(), 1u);
  const auto& got = result.scenarios[0];
  EXPECT_EQ(got.sessions, 300);
  ASSERT_EQ(got.slos.size(), 2u);
  EXPECT_EQ(got.slos[0].compliant, 300);
  EXPECT_DOUBLE_EQ(got.slos[0].fraction, 1.0);
  EXPECT_TRUE(got.slos[0].pass);
  EXPECT_EQ(got.slos[1].compliant, 0);
  EXPECT_DOUBLE_EQ(got.slos[1].fraction, 0.0);
  EXPECT_FALSE(got.slos[1].pass);
  // Histogram population equals the session count for every metric.
  ASSERT_EQ(got.metrics.size(), 3u);
  for (const auto& m : got.metrics) {
    EXPECT_EQ(m.stats.count, 300) << m.name;
    EXPECT_LE(m.stats.p50, m.stats.p99) << m.name;
    EXPECT_LE(m.stats.p99, m.stats.p999) << m.name;
    EXPECT_LE(m.stats.p999, m.stats.max) << m.name;
  }
  EXPECT_EQ(result.sessions, 300);
  EXPECT_GT(result.steps, 0);
}

TEST(FleetRun, ValidatesEverythingUpFront) {
  const rl::MlpPolicy lb_policy = test_policy("lb");
  const fleet::FleetOptions opts;

  fleet::Scenario sc;
  sc.name = "bad";
  sc.task = "lb";
  sc.sessions = 10;

  {  // policy shape vs task
    fleet::Scenario s = sc;
    s.task = "abr";
    EXPECT_THROW(fleet::run_fleet(lb_policy, {s}, opts),
                 std::invalid_argument);
  }
  {  // lb has no recorded traces
    fleet::Scenario s = sc;
    s.use_traces = true;
    s.trace_prob = 0.5;
    EXPECT_THROW(fleet::run_fleet(lb_policy, {s}, opts),
                 std::invalid_argument);
  }
  {  // an ABR trace set cannot drive a CC scenario
    fleet::Scenario s = sc;
    s.task = "cc";
    s.use_traces = true;
    s.trace_prob = 0.5;
    s.trace_set = traces::TraceSet::kFcc;
    const rl::MlpPolicy cc_policy = test_policy("cc");
    EXPECT_THROW(fleet::run_fleet(cc_policy, {s}, opts),
                 std::invalid_argument);
  }
  {  // device dim typo
    fleet::Scenario s = sc;
    s.devices.push_back({"phone", 1.0, {{"no_such_dim", 0.5}}});
    EXPECT_THROW(fleet::run_fleet(lb_policy, {s}, opts), std::exception);
  }
  {  // device scale must be positive
    fleet::Scenario s = sc;
    s.devices.push_back({"phone", 1.0, {{"service_rate", -1.0}}});
    EXPECT_THROW(fleet::run_fleet(lb_policy, {s}, opts),
                 std::invalid_argument);
  }
  {  // SLO on an unknown metric
    fleet::Scenario s = sc;
    s.slos.push_back({"rebuffer_s", fleet::SloOp::kAtMost, 1.0, 0.9});
    EXPECT_THROW(fleet::run_fleet(lb_policy, {s}, opts),
                 std::invalid_argument);
  }
  {  // trace_prob out of range
    fleet::Scenario s = sc;
    s.trace_prob = 1.5;
    EXPECT_THROW(fleet::run_fleet(lb_policy, {s}, opts),
                 std::invalid_argument);
  }
  {  // no sessions
    fleet::Scenario s = sc;
    s.sessions = 0;
    EXPECT_THROW(fleet::run_fleet(lb_policy, {s}, opts),
                 std::invalid_argument);
  }
  EXPECT_THROW(fleet::run_fleet(lb_policy, {}, opts), std::invalid_argument);
}

TEST(FleetFixture, RegeneratedWorstKMatchesCommittedBytes) {
  // write_regression_fixture replays the pinned 96-session ABR fleet and
  // dumps its worst-4 flight recordings, then digests each task's small
  // default mix (ABR and CC with half their sessions on recorded traces).
  // The committed copies under tests/data/ pin the whole sampling -> device
  // skew -> trace mix -> lockstep replay -> flight capture pipeline. A
  // mismatch means fleet behavior changed: regenerate deliberately with
  // tools/make_fleet_fixtures and review the diff.
  const std::string dir = ::testing::TempDir() + "fleet_fixture";
  const std::vector<std::string> fresh = fleet::write_regression_fixture(dir);
  ASSERT_EQ(fresh.size(), 4u);
  for (const std::string& path : fresh) {
    const std::string name = std::filesystem::path(path).filename().string();
    const std::string fresh_bytes = read_file(path);
    ASSERT_FALSE(fresh_bytes.empty()) << name;
    EXPECT_EQ(fresh_bytes,
              read_file(std::string(GENET_TEST_DATA_DIR) + "/" + name))
        << name;
  }
}

TEST(FleetReport, JsonAndSummaryRenderEveryScenario) {
  // Every default mix, traces included, must come out self-consistent:
  // totals equal the per-scenario sums, every metric saw every session with
  // ordered percentiles, and every SLO verdict follows from its counts.
  for (const char* task : {"abr", "cc", "lb"}) {
    SCOPED_TRACE(task);
    const rl::MlpPolicy policy = test_policy(task);
    const auto scenarios = fleet::default_scenarios(task, 200, 0.5);
    fleet::FleetOptions opts;
    opts.seed = 9;
    const fleet::FleetResult result = run_fleet(policy, scenarios, opts);

    std::int64_t sessions = 0;
    std::int64_t steps = 0;
    for (const auto& sc : result.scenarios) {
      SCOPED_TRACE(sc.name);
      sessions += sc.sessions;
      steps += sc.steps;
      EXPECT_GT(sc.sessions, 0);
      EXPECT_FALSE(sc.slos.empty());
      ASSERT_FALSE(sc.metrics.empty());
      std::vector<std::string> names;
      for (const auto& m : sc.metrics) {
        const auto& s = m.stats;
        names.push_back(m.name);
        EXPECT_EQ(s.count, sc.sessions) << m.name;
        EXPECT_LE(s.min, s.p50) << m.name;
        EXPECT_LE(s.p50, s.p90) << m.name;
        EXPECT_LE(s.p90, s.p99) << m.name;
        EXPECT_LE(s.p99, s.p999) << m.name;
        EXPECT_LE(s.p999, s.max) << m.name;
        const double mean = s.sum / static_cast<double>(s.count);
        EXPECT_LE(s.min, mean) << m.name;
        EXPECT_LE(mean, s.max) << m.name;
      }
      for (const auto& slo : sc.slos) {
        EXPECT_NE(std::find(names.begin(), names.end(), slo.spec.metric),
                  names.end())
            << slo.spec.metric;
        EXPECT_DOUBLE_EQ(slo.fraction, static_cast<double>(slo.compliant) /
                                           static_cast<double>(sc.sessions));
        EXPECT_EQ(slo.pass, slo.fraction >= slo.spec.target_fraction - 1e-12);
      }
    }
    EXPECT_EQ(result.sessions, sessions);
    EXPECT_EQ(result.steps, steps);

    const std::string summary = fleet::format_fleet_summary(result);
    for (const auto& sc : result.scenarios) {
      EXPECT_NE(summary.find("[" + sc.name + "]"), std::string::npos);
    }
    EXPECT_NE(summary.find("SLO"), std::string::npos);

    const std::string path =
        ::testing::TempDir() + "fleet_report_" + task + ".json";
    fleet::write_fleet_json(path, result);
    const std::string json = read_file(path);
    EXPECT_NE(json.find("\"bench\": \"fleet\""), std::string::npos);
    EXPECT_NE(json.find("\"sessions_total\": " + std::to_string(sessions)),
              std::string::npos);
    EXPECT_NE(json.find("\"steps_total\": " + std::to_string(steps)),
              std::string::npos);
    for (const auto& sc : result.scenarios) {
      EXPECT_NE(json.find("\"" + sc.name + "\""), std::string::npos);
    }
  }
}

}  // namespace
