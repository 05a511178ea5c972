// Figure 9: asymptotic performance on the full (RL3) target distribution.
// For each use case, train RL1/RL2/RL3 traditionally and Genet with the
// task's default rule-based baseline, then test all four policies (plus the
// rule-based baseline itself) on 200 fresh environments drawn from the RL3
// ranges.

#include <cstdio>

#include "exp_common.hpp"

namespace {

void run_task(const std::string& task, const std::string& baseline) {
  genet::ModelZoo zoo;
  auto target_adapter = genet::make_adapter(task, 3);
  netgym::ConfigDistribution target(target_adapter->space());
  constexpr std::uint64_t kSeeds[] = {1, 2};

  std::printf("\n(%s) mean test reward over 200 RL3-range environments, "
              "two seeds + mean\n",
              task.c_str());

  // Traditional RL trained on RL1 / RL2 / RL3 ranges.
  for (int space = 1; space <= 3; ++space) {
    auto adapter = genet::make_adapter(task, space);
    std::vector<double> rewards;
    for (std::uint64_t seed : kSeeds) {
      const auto params = bench::traditional_params(zoo, *adapter, seed,
          bench::traditional_iterations(task));
      auto policy = target_adapter->make_policy(params);
      netgym::Rng rng(77);
      rewards.push_back(genet::test_on_distribution(*target_adapter, *policy,
                                                    target, 200, rng));
    }
    rewards.push_back((rewards[0] + rewards[1]) / 2);
    bench::print_row("RL" + std::to_string(space), rewards);
  }

  // Genet over the full space, guided by the default baseline.
  {
    std::vector<double> rewards;
    for (std::uint64_t seed : kSeeds) {
      const auto params =
          bench::genet_params(zoo, *target_adapter, baseline, seed);
      auto policy = target_adapter->make_policy(params);
      netgym::Rng rng(77);
      rewards.push_back(genet::test_on_distribution(*target_adapter, *policy,
                                                    target, 200, rng));
    }
    rewards.push_back((rewards[0] + rewards[1]) / 2);
    bench::print_row("Genet (" + baseline + ")", rewards);
  }

  // The rule-based baseline as a reference point.
  {
    netgym::Rng rng(77);
    netgym::Rng env_rng(1);
    auto probe_env = target_adapter->make_env(target.space().midpoint(),
                                              env_rng);
    auto rule = target_adapter->make_baseline(baseline, *probe_env);
    const double reward = genet::test_on_distribution(*target_adapter, *rule,
                                                      target, 200, rng);
    bench::print_row("rule-based " + baseline, {reward});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 9 - asymptotic performance on the full target distribution",
      "Genet outperforms traditionally trained RL1/RL2/RL3 by 8-25% (ABR), "
      "14-24% (CC), 15% (LB); no clear ranking among RL1/RL2/RL3");
  run_task("cc", "bbr");
  run_task("abr", "mpc");
  run_task("lb", "llf");
  return bench::finish();
}
