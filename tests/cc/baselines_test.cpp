#include "cc/baselines.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "cc/env.hpp"

namespace {

using cc::CcEnv;
using cc::CcEnvConfig;
using netgym::Rng;
using netgym::Trace;

Trace constant_trace(double mbps, double duration_s) {
  Trace t;
  for (double s = 0.0; s <= duration_s + 0.1; s += 0.1) {
    t.timestamps_s.push_back(s + 1e-4);
    t.bandwidth_mbps.push_back(mbps);
  }
  return t;
}

CcEnvConfig stable_config(double bw_mbps) {
  CcEnvConfig cfg;
  cfg.max_bw_mbps = bw_mbps;
  cfg.min_rtt_ms = 100.0;
  cfg.queue_packets = 50.0;
  cfg.duration_s = 30.0;
  return cfg;
}

double run_controller(netgym::Policy& policy, double bw_mbps,
                      double loss_rate = 0.0, std::uint64_t seed = 1) {
  CcEnvConfig cfg = stable_config(bw_mbps);
  cfg.loss_rate = loss_rate;
  CcEnv env(cfg, constant_trace(bw_mbps, cfg.duration_s), seed);
  Rng rng(seed);
  return netgym::run_episode(env, policy, rng).mean_reward;
}

double utilization_of(netgym::Policy& policy, double bw_mbps,
                      std::uint64_t seed = 1) {
  CcEnvConfig cfg = stable_config(bw_mbps);
  CcEnv env(cfg, constant_trace(bw_mbps, cfg.duration_s), seed);
  Rng rng(seed);
  netgym::run_episode(env, policy, rng);
  return env.totals().mean_throughput_mbps(cfg.duration_s) / bw_mbps;
}

/// All rule-based controllers must reach reasonable utilization on a stable
/// link without melting down on latency/loss. The controller name is a
/// std::string (not a const char*) so the printed parameter, and with it the
/// discovered ctest name, carries no run-dependent pointer address.
class ControllerUtilization
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {
 public:
  static std::unique_ptr<netgym::Policy> make(const std::string& name) {
    if (name == "cubic") return std::make_unique<cc::CubicPolicy>();
    if (name == "bbr") return std::make_unique<cc::BbrPolicy>();
    if (name == "vivace") return std::make_unique<cc::VivacePolicy>();
    if (name == "copa") return std::make_unique<cc::CopaPolicy>();
    throw std::invalid_argument("unknown controller");
  }
};

TEST_P(ControllerUtilization, ReachesDecentUtilization) {
  const auto& [name, bw] = GetParam();
  auto policy = make(name);
  const double util = utilization_of(*policy, bw);
  EXPECT_GT(util, 0.5) << name << " at " << bw << " Mbps";
  EXPECT_LT(util, 1.05) << name << " at " << bw << " Mbps";
}

INSTANTIATE_TEST_SUITE_P(
    Controllers, ControllerUtilization,
    ::testing::Combine(::testing::Values(std::string("cubic"),
                                         std::string("bbr"),
                                         std::string("vivace"),
                                         std::string("copa")),
                       ::testing::Values(2.0, 10.0, 40.0)));

TEST(Cubic, BacksOffOnLoss) {
  // Cubic's reward collapses under random loss relative to lossless
  // conditions on the same link (S4.2's observation about Cubic).
  cc::CubicPolicy cubic;
  const double clean = run_controller(cubic, 20.0, 0.0);
  const double lossy = run_controller(cubic, 20.0, 0.03);
  EXPECT_LT(lossy, clean);
  // And Cubic's utilization under loss is visibly degraded.
  cc::CubicPolicy cubic2;
  CcEnvConfig cfg = stable_config(20.0);
  cfg.loss_rate = 0.03;
  CcEnv env(cfg, constant_trace(20.0, cfg.duration_s), 1);
  Rng rng(1);
  netgym::run_episode(env, cubic2, rng);
  EXPECT_LT(env.totals().mean_throughput_mbps(cfg.duration_s) / 20.0, 0.7);
}

TEST(Bbr, ToleratesRandomLossBetterThanCubic) {
  cc::BbrPolicy bbr;
  cc::CubicPolicy cubic;
  CcEnvConfig cfg = stable_config(20.0);
  cfg.loss_rate = 0.03;
  CcEnv env_bbr(cfg, constant_trace(20.0, cfg.duration_s), 1);
  CcEnv env_cubic(cfg, constant_trace(20.0, cfg.duration_s), 1);
  Rng rng(1);
  netgym::run_episode(env_bbr, bbr, rng);
  netgym::run_episode(env_cubic, cubic, rng);
  EXPECT_GT(env_bbr.totals().mean_throughput_mbps(cfg.duration_s),
            env_cubic.totals().mean_throughput_mbps(cfg.duration_s));
}

TEST(Bbr, LossResponseBoundsLossOnFadingLink) {
  // Bandwidth halves abruptly mid-episode: BBR's stale bandwidth estimate
  // would overdrive the link for a full btlbw window; the v2-style loss
  // response must keep total loss bounded.
  Trace fading;
  for (double s = 0.0; s <= 30.0; s += 0.1) {
    fading.timestamps_s.push_back(s + 1e-4);
    fading.bandwidth_mbps.push_back(s < 15.0 ? 12.0 : 1.5);
  }
  CcEnvConfig cfg = stable_config(12.0);
  CcEnv env(cfg, fading, 1);
  cc::BbrPolicy bbr;
  Rng rng(1);
  netgym::run_episode(env, bbr, rng);
  EXPECT_LT(env.totals().loss_fraction(), 0.2);
}

TEST(Oracle, TracksCapacityAlmostPerfectly) {
  CcEnvConfig cfg = stable_config(10.0);
  CcEnv env(cfg, constant_trace(10.0, cfg.duration_s), 1);
  cc::OraclePolicy oracle(env);
  Rng rng(1);
  netgym::run_episode(env, oracle, rng);
  const double util = env.totals().mean_throughput_mbps(cfg.duration_s) / 10.0;
  EXPECT_GT(util, 0.85);
}

TEST(Oracle, OutperformsControllersOnVolatileLink) {
  // On a rapidly changing link the oracle (which reads the trace) should be
  // at least as good as the online controllers.
  CcEnvConfig cfg = stable_config(10.0);
  cfg.bw_change_interval_s = 0.5;
  Rng trace_rng(9);
  netgym::CcTraceParams params{10.0, 0.5, 30.0};
  const Trace trace = netgym::generate_cc_trace(params, trace_rng);

  auto run = [&](netgym::Policy& p) {
    CcEnv env(cfg, trace, 1);
    Rng rng(1);
    return netgym::run_episode(env, p, rng).mean_reward;
  };
  CcEnv oracle_env(cfg, trace, 1);
  cc::OraclePolicy oracle(oracle_env);
  Rng rng(1);
  const double r_oracle =
      netgym::run_episode(oracle_env, oracle, rng).mean_reward;
  cc::CubicPolicy cubic;
  cc::BbrPolicy bbr;
  EXPECT_GT(r_oracle, run(cubic) - 5.0);
  EXPECT_GT(r_oracle, run(bbr) - 5.0);
}

TEST(RateController, ActionMovesRateTowardTarget) {
  // A controller demanding a huge rate must emit the max-up action; one
  // demanding a tiny rate must emit the max-down action.
  class FixedTarget : public cc::RateController {
   public:
    explicit FixedTarget(double target) : target_(target) {}

   protected:
    double target_rate_pkts(const MiView&, netgym::Rng&) override {
      return target_;
    }

   private:
    double target_;
  };

  netgym::Observation obs(CcEnv::kObsSize, 0.0);
  obs[CcEnv::kObsRate] = std::log10(2.0);  // encodes 100 pkts/s
  obs[CcEnv::kObsMinRtt] = 0.1;
  Rng rng(1);
  FixedTarget up(1e6);
  FixedTarget down(1.0);
  FixedTarget hold(100.0);
  EXPECT_EQ(up.act(obs, rng), cc::kRateActionCount - 1);
  EXPECT_EQ(down.act(obs, rng), 0);
  EXPECT_EQ(hold.act(obs, rng), 4);  // factor 1.0
}

TEST(Controllers, BeginEpisodeResetsState) {
  // After a loss-heavy episode, a reset Cubic must start in slow-start and
  // behave exactly as a fresh instance.
  cc::CubicPolicy seasoned;
  run_controller(seasoned, 2.0, 0.05, 3);
  seasoned.begin_episode();
  cc::CubicPolicy fresh;
  fresh.begin_episode();
  netgym::Observation obs(CcEnv::kObsSize, 0.0);
  obs[CcEnv::kObsRate] = std::log10(1.5);  // encodes 50 pkts/s
  obs[CcEnv::kObsMinRtt] = 0.1;
  obs[CcEnv::kObsNewestMi + 0] = 0.1;
  obs[CcEnv::kObsMiDuration] = 0.1;
  Rng rng(1);
  EXPECT_EQ(seasoned.act(obs, rng), fresh.act(obs, rng));
}

}  // namespace
