// Microbenchmarks (google-benchmark): throughput of the substrates every
// experiment is built on -- simulator steps, network forward/backward,
// optimizer updates, GP fits, BO proposals, trace generation, the
// offline-optimal planner, and one RobustMPC decision.

#include <benchmark/benchmark.h>

#include "abr/baselines.hpp"
#include "abr/env.hpp"
#include "abr/optimal.hpp"
#include "bo/search.hpp"
#include "cc/env.hpp"
#include "lb/env.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "netgym/trace.hpp"

namespace {

void BM_AbrEnvEpisode(benchmark::State& state) {
  abr::AbrEnvConfig cfg;
  netgym::Rng rng(1);
  for (auto _ : state) {
    auto env = abr::make_abr_env(cfg, rng);
    env->reset();
    bool done = false;
    int a = 0;
    while (!done) done = env->step(a++ % abr::kBitrateCount).done;
  }
}
BENCHMARK(BM_AbrEnvEpisode);

void BM_CcEnvEpisode(benchmark::State& state) {
  cc::CcEnvConfig cfg;
  netgym::Rng rng(1);
  for (auto _ : state) {
    auto env = cc::make_cc_env(cfg, rng);
    env->reset();
    bool done = false;
    int a = 0;
    while (!done) done = env->step(a++ % cc::kRateActionCount).done;
  }
}
BENCHMARK(BM_CcEnvEpisode);

void BM_LbEnvEpisode(benchmark::State& state) {
  lb::LbEnvConfig cfg;
  cfg.num_jobs = 500;
  netgym::Rng rng(1);
  for (auto _ : state) {
    auto env = lb::make_lb_env(cfg, rng);
    env->reset();
    bool done = false;
    int a = 0;
    while (!done) done = env->step(a++ % lb::kNumServers).done;
  }
}
BENCHMARK(BM_LbEnvEpisode);

void BM_MlpForward(benchmark::State& state) {
  netgym::Rng rng(1);
  nn::Mlp net({53, 32, 32, 9}, nn::Activation::kTanh, rng);
  std::vector<double> x(53, 0.3);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(x));
}
BENCHMARK(BM_MlpForward);

void BM_MlpForwardBackward(benchmark::State& state) {
  netgym::Rng rng(1);
  nn::Mlp net({53, 32, 32, 9}, nn::Activation::kTanh, rng);
  std::vector<double> x(53, 0.3);
  std::vector<double> g(9, 0.1);
  for (auto _ : state) {
    net.forward(x);
    net.backward(g);
  }
}
BENCHMARK(BM_MlpForwardBackward);

void BM_AdamStep(benchmark::State& state) {
  nn::Adam opt(3000);
  std::vector<double> params(3000, 0.1);
  std::vector<double> grads(3000, 0.01);
  for (auto _ : state) opt.step(params, grads);
}
BENCHMARK(BM_AdamStep);

void BM_GpFitPredict(benchmark::State& state) {
  netgym::Rng rng(1);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 15; ++i) {
    xs.push_back({rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1),
                  rng.uniform(0, 1), rng.uniform(0, 1)});
    ys.push_back(rng.uniform(-1, 1));
  }
  for (auto _ : state) {
    bo::GaussianProcess gp;
    gp.fit(xs, ys);
    benchmark::DoNotOptimize(gp.predict(xs[0]));
  }
}
BENCHMARK(BM_GpFitPredict);

void BM_BoProposeUpdate(benchmark::State& state) {
  bo::BayesianOptimizer opt(5, 1);
  netgym::Rng rng(2);
  for (auto _ : state) {
    const auto x = opt.propose();
    opt.update(x, rng.uniform(-1, 1));
  }
}
BENCHMARK(BM_BoProposeUpdate);

void BM_AbrTraceGeneration(benchmark::State& state) {
  netgym::AbrTraceParams params;
  params.duration_s = 200;
  netgym::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netgym::generate_abr_trace(params, rng));
  }
}
BENCHMARK(BM_AbrTraceGeneration);

void BM_OfflineOptimal(benchmark::State& state) {
  abr::AbrEnvConfig cfg;
  cfg.video_length_s = 120;
  netgym::Rng rng(1);
  auto env = abr::make_abr_env(cfg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(abr::offline_optimal(*env, 32));
  }
}
BENCHMARK(BM_OfflineOptimal);

void BM_RobustMpcDecision(benchmark::State& state) {
  // The observations of one fixed-seed RL3 episode played by RobustMPC,
  // replayed in order (restarting the episode at the end) one decision per
  // iteration.
  netgym::Rng rng(1);
  const netgym::ConfigSpace space = abr::abr_config_space(3);
  auto env = abr::make_abr_env(abr::abr_config_from_point(space.sample(rng)),
                               rng);
  abr::RobustMpcPolicy mpc(5);
  mpc.begin_episode();
  std::vector<netgym::Observation> episode{env->reset()};
  for (bool done = false; !done;) {
    const auto step = env->step(mpc.act(episode.back(), rng));
    done = step.done;
    if (!done) episode.push_back(step.observation);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == 0) mpc.begin_episode();
    benchmark::DoNotOptimize(mpc.act(episode[next], rng));
    next = (next + 1) % episode.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RobustMpcDecision);

}  // namespace

BENCHMARK_MAIN();
