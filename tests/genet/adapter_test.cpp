#include "genet/adapter.hpp"
#include "genet/curriculum.hpp"

#include <gtest/gtest.h>

#include "abr/baselines.hpp"
#include "abr/env.hpp"
#include "cc/env.hpp"
#include "lb/env.hpp"
#include "traces/tracesets.hpp"

namespace {

using genet::AbrAdapter;
using genet::CcAdapter;
using genet::LbAdapter;
using netgym::Rng;

/// Trivial fixed-action policy for plumbing tests.
class FixedAction : public netgym::Policy {
 public:
  explicit FixedAction(int a) : a_(a) {}
  int act(const netgym::Observation&, Rng&) override { return a_; }

 private:
  int a_;
};

template <typename Adapter>
void check_basic_contract(const Adapter& adapter) {
  EXPECT_GT(adapter.obs_size(), 0);
  EXPECT_GT(adapter.action_count(), 0);
  EXPECT_GT(adapter.space().dims(), 0u);
  Rng rng(1);
  const netgym::Config config = adapter.space().sample(rng);
  auto env = adapter.make_env(config, rng);
  ASSERT_NE(env, nullptr);
  EXPECT_EQ(env->observation_size(),
            static_cast<std::size_t>(adapter.obs_size()));
  EXPECT_EQ(env->action_count(), adapter.action_count());
  const netgym::Observation obs = env->reset();
  EXPECT_EQ(obs.size(), static_cast<std::size_t>(adapter.obs_size()));
  // Every advertised baseline must construct and act.
  for (const std::string& name : adapter.baseline_names()) {
    auto baseline = adapter.make_baseline(name, *env);
    ASSERT_NE(baseline, nullptr) << name;
    const int action = baseline->act(obs, rng);
    EXPECT_GE(action, 0) << name;
    EXPECT_LT(action, adapter.action_count()) << name;
  }
  EXPECT_THROW(adapter.make_baseline("definitely-not-a-baseline", *env),
               std::invalid_argument);
}

TEST(Adapters, AbrContract) { check_basic_contract(AbrAdapter(3)); }
TEST(Adapters, CcContract) { check_basic_contract(CcAdapter(3)); }
TEST(Adapters, LbContract) { check_basic_contract(LbAdapter(3)); }

TEST(Adapters, TrainersMatchTaskShapes) {
  for (const auto* adapter :
       std::initializer_list<const genet::TaskAdapter*>{
           new AbrAdapter(3), new CcAdapter(3), new LbAdapter(3)}) {
    auto trainer = adapter->make_trainer(1);
    EXPECT_EQ(trainer->policy().obs_size(), adapter->obs_size());
    EXPECT_EQ(trainer->policy().action_count(), adapter->action_count());
    delete adapter;
  }
}

TEST(TestOnConfig, IsDeterministicGivenSeed) {
  AbrAdapter adapter(1);
  FixedAction policy(0);
  Rng rng1(5), rng2(5);
  const netgym::Config config = adapter.space().midpoint();
  const double a = genet::test_on_config(adapter, policy, config, 3, rng1);
  const double b = genet::test_on_config(adapter, policy, config, 3, rng2);
  EXPECT_EQ(a, b);
  EXPECT_THROW(genet::test_on_config(adapter, policy, config, 0, rng1),
               std::invalid_argument);
}

TEST(GapToBaseline, PositiveForBadPolicyAgainstGoodBaseline) {
  // A policy that always requests the top bitrate on a low-bandwidth config
  // must fall far behind MPC.
  AbrAdapter adapter(1);
  FixedAction bad_policy(abr::kBitrateCount - 1);
  netgym::Config config = adapter.space().midpoint();
  config.values[adapter.space().index_of("max_bw_mbps")] = 2.0;
  Rng rng(7);
  const double gap =
      genet::gap_to_baseline(adapter, bad_policy, "mpc", config, 5, rng);
  EXPECT_GT(gap, 1.0);
}

TEST(GapToBaseline, NearZeroForBaselineAgainstItself) {
  // MPC-as-policy vs MPC-as-baseline on paired envs: the gap must be ~0.
  AbrAdapter adapter(1);
  abr::RobustMpcPolicy mpc;
  const netgym::Config config = adapter.space().midpoint();
  Rng rng(7);
  const double gap =
      genet::gap_to_baseline(adapter, mpc, "mpc", config, 5, rng);
  EXPECT_NEAR(gap, 0.0, 1e-9);
}

TEST(GapToOptimum, NonNegativeForAnyPolicy) {
  AbrAdapter adapter(1);
  FixedAction policy(2);
  const netgym::Config config = adapter.space().midpoint();
  Rng rng(3);
  const double gap =
      genet::gap_to_optimum(adapter, policy, config, 3, rng);
  EXPECT_GT(gap, -0.05);  // optimal beats any fixed policy (up to beam noise)
}

TEST(Adapters, LbHasNoTraceEnvironments) {
  LbAdapter adapter(3);
  Rng rng(1);
  const netgym::Trace trace = traces::make_trace(traces::TraceSet::kFcc, false, 0);
  EXPECT_THROW(adapter.make_env_from_trace(trace, rng), std::logic_error);
}

TEST(Adapters, TraceDrivenEnvsReplayTheTrace) {
  AbrAdapter adapter(3);
  Rng rng(1);
  const netgym::Trace trace =
      traces::make_trace(traces::TraceSet::kFcc, false, 2);
  auto env = adapter.make_env_from_trace(trace, rng);
  auto* abr_env = dynamic_cast<abr::AbrEnv*>(env.get());
  ASSERT_NE(abr_env, nullptr);
  EXPECT_EQ(abr_env->trace().bandwidth_mbps, trace.bandwidth_mbps);
}

TEST(Adapters, TraceMixUsesCorpusTraces) {
  genet::TraceMixOptions mix;
  mix.corpus = traces::make_corpus(traces::TraceSet::kCellular, false);
  mix.trace_prob = 1.0;  // always trace-driven
  CcAdapter adapter(3, std::move(mix));
  Rng rng(2);
  netgym::Config config = adapter.space().midpoint();
  auto env = adapter.make_env(config, rng);
  auto* cc_env = dynamic_cast<cc::CcEnv*>(env.get());
  ASSERT_NE(cc_env, nullptr);
  // The env's trace must be one of the corpus traces.
  bool found = false;
  for (const auto& t :
       traces::make_corpus(traces::TraceSet::kCellular, false)) {
    if (t.bandwidth_mbps == cc_env->trace().bandwidth_mbps) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Adapters, PacketBackendProducesPacketEnvs) {
  genet::CcAdapter fluid(3);
  genet::CcAdapter packet(3, {}, /*use_packet_sim=*/true);
  Rng rng(8);
  const netgym::Config config = fluid.space().midpoint();
  auto fluid_env = fluid.make_env(config, rng);
  auto packet_env = packet.make_env(config, rng);
  EXPECT_NE(dynamic_cast<cc::CcEnv*>(fluid_env.get()), nullptr);
  EXPECT_EQ(dynamic_cast<cc::CcEnv*>(packet_env.get()), nullptr);
  // Same interface shapes: a policy can run on either backend.
  EXPECT_EQ(fluid_env->observation_size(), packet_env->observation_size());
  EXPECT_EQ(fluid_env->action_count(), packet_env->action_count());
  // Gap-to-optimum requires the fluid backend.
  FixedAction policy(4);
  netgym::Rng grng(3);
  EXPECT_THROW(
      genet::gap_to_optimum(packet, policy, config, 1, grng),
      std::invalid_argument);
}

TEST(Adapters, FluidTrainedPolicyRunsOnPacketBackend) {
  // Cross-backend transfer: train briefly on the fluid simulator, evaluate
  // on the packet simulator without any shape changes.
  genet::CcAdapter fluid(1);
  genet::CcAdapter packet(1, {}, /*use_packet_sim=*/true);
  auto trainer = genet::train_traditional(fluid, 3, 5);
  trainer->policy().set_greedy(true);
  netgym::ConfigDistribution dist(packet.space());
  Rng rng(6);
  const double reward = genet::test_on_distribution(
      packet, trainer->policy(), dist, 3, rng);
  EXPECT_TRUE(std::isfinite(reward));
}

TEST(Adapters, TraceDrivenEnvsWorkForEveryMatchingSet) {
  genet::AbrAdapter abr_adapter(3);
  genet::CcAdapter cc_adapter(3);
  Rng rng(4);
  FixedAction policy(0);
  for (auto set : traces::all_sets()) {
    const netgym::Trace trace = traces::make_trace(set, true, 0);
    genet::TaskAdapter& adapter =
        traces::info(set).for_abr
            ? static_cast<genet::TaskAdapter&>(abr_adapter)
            : static_cast<genet::TaskAdapter&>(cc_adapter);
    auto env = adapter.make_env_from_trace(trace, rng);
    const auto stats = netgym::run_episode(*env, policy, rng);
    EXPECT_GT(stats.steps, 0) << traces::info(set).name;
  }
}

TEST(TaskRegistry, ResolvesEveryTaskName) {
  for (const char* task : {"abr", "cc", "lb"}) {
    const auto adapter = genet::make_adapter(task, 2);
    EXPECT_EQ(adapter->name(), task);
    EXPECT_EQ(adapter->dist_spec(), std::string(task) + "/2");
    EXPECT_EQ(genet::make_adapter_from_spec(adapter->dist_spec())->name(),
              task);
  }
  EXPECT_THROW(genet::make_adapter("dns", 1), std::invalid_argument);
  EXPECT_THROW(genet::make_adapter_from_spec("dns/1"), std::invalid_argument);
  genet::TraceMixOptions mix;
  mix.corpus = {traces::make_trace(traces::TraceSet::kFcc, false, 0)};
  EXPECT_THROW(genet::make_adapter("lb", 1, mix), std::invalid_argument);
  EXPECT_EQ(genet::make_adapter("abr", 1, mix)->dist_spec(), "");
}

TEST(TaskRegistry, EachTaskReplaysOnlyItsOwnTraceSets) {
  for (auto set : traces::all_sets()) {
    const bool for_abr = traces::info(set).for_abr;
    EXPECT_EQ(AbrAdapter(1).replays(set), for_abr);
    EXPECT_EQ(CcAdapter(1).replays(set), !for_abr);
    EXPECT_FALSE(LbAdapter(1).replays(set));
  }
}

TEST(Adapters, TraceDrivenEnvTakesTheConfigPoint) {
  AbrAdapter adapter(1);
  const netgym::Config point = adapter.space().midpoint();
  const netgym::Trace trace =
      traces::make_trace(traces::TraceSet::kFcc, false, 1);
  Rng rng(5);
  auto with_point = adapter.make_env_from_trace(trace, rng, &point);
  auto without = adapter.make_env_from_trace(trace, rng);
  const auto& a = dynamic_cast<const abr::AbrEnv&>(*with_point);
  const auto& b = dynamic_cast<const abr::AbrEnv&>(*without);
  EXPECT_EQ(a.config().max_buffer_s,
            abr::abr_config_from_point(point).max_buffer_s);
  EXPECT_EQ(b.config().max_buffer_s, abr::AbrEnvConfig{}.max_buffer_s);
  EXPECT_EQ(a.trace().bandwidth_mbps, trace.bandwidth_mbps);
}

TEST(Adapters, SessionMetricsFillEveryNamedSlot) {
  for (const char* task : {"abr", "cc", "lb"}) {
    const auto owned = genet::make_adapter(task, 1);
    const genet::TaskAdapter& adapter = *owned;
    const auto& names = adapter.session_metric_names();
    ASSERT_EQ(names.size(), 3u) << task;
    EXPECT_EQ(names.front(), "episode_reward") << task;
    Rng rng(7);
    auto env = adapter.make_env(adapter.space().midpoint(), rng);
    FixedAction policy(0);
    const netgym::EpisodeStats stats = netgym::run_episode(*env, policy, rng);
    std::vector<double> out(names.size(), -1.0);
    adapter.session_metrics(*env, stats, out);
    EXPECT_EQ(out[0], stats.mean_reward) << task;
    for (std::size_t m = 1; m < out.size(); ++m) {
      EXPECT_TRUE(std::isfinite(out[m])) << task << " " << names[m];
      EXPECT_GE(out[m], 0.0) << task << " " << names[m];
    }
  }
  // An environment of another task is rejected, not misread.
  Rng rng(1);
  auto lb_env = LbAdapter(1).make_env(LbAdapter(1).space().midpoint(), rng);
  std::vector<double> out(3);
  EXPECT_THROW(AbrAdapter(1).session_metrics(*lb_env, {}, out),
               std::invalid_argument);
}

TEST(TestPerTrace, ReturnsOneRewardPerTrace) {
  AbrAdapter adapter(3);
  FixedAction policy(0);
  Rng rng(4);
  std::vector<netgym::Trace> corpus;
  for (int i = 0; i < 3; ++i) {
    corpus.push_back(traces::make_trace(traces::TraceSet::kNorway, true, i));
  }
  const auto rewards = genet::test_per_trace(adapter, policy, corpus, rng);
  EXPECT_EQ(rewards.size(), 3u);
}

netgym::Trace flat_trace(double bw_mbps) {
  netgym::Trace trace;
  trace.timestamps_s = {0.0, 1.0, 2.0};
  trace.bandwidth_mbps = {bw_mbps, bw_mbps, bw_mbps};
  return trace;
}

TEST(MatchingTrace, ThrowsOnEmptyCorpus) {
  const std::vector<netgym::Trace> empty;
  Rng rng(1);
  EXPECT_THROW(genet::matching_trace(empty, 5.0, rng),
               std::invalid_argument);
}

TEST(MatchingTrace, PicksACompatibleTraceWhenOneExists) {
  // Compatible means mean bandwidth within [0.02 * max_bw, max_bw]; only the
  // 3 Mbps trace qualifies for max_bw = 5.
  const std::vector<netgym::Trace> corpus{flat_trace(50.0), flat_trace(3.0),
                                          flat_trace(0.01)};
  Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    const netgym::Trace& picked = genet::matching_trace(corpus, 5.0, rng);
    EXPECT_DOUBLE_EQ(picked.mean_bandwidth(), 3.0);
  }
}

TEST(MatchingTrace, FallsBackToClosestMeanBandwidth) {
  // No trace fits inside the window for max_bw = 5; the closest by mean
  // bandwidth (20 vs 40) must be returned rather than reading out of bounds.
  const std::vector<netgym::Trace> corpus{flat_trace(40.0), flat_trace(20.0)};
  Rng rng(3);
  const netgym::Trace& picked = genet::matching_trace(corpus, 5.0, rng);
  EXPECT_DOUBLE_EQ(picked.mean_bandwidth(), 20.0);
}

TEST(ConfigNonSmoothness, HigherForFasterChangingBandwidth) {
  AbrAdapter adapter(3);
  Rng rng(6);
  netgym::Config smooth = adapter.space().midpoint();
  netgym::Config rough = smooth;
  const std::size_t dim = adapter.space().index_of("bw_change_interval_s");
  smooth.values[dim] = 90.0;
  rough.values[dim] = 2.0;
  EXPECT_GT(adapter.config_non_smoothness(rough, rng),
            adapter.config_non_smoothness(smooth, rng));
}

}  // namespace
