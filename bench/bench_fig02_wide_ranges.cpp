// Figure 2: traditional RL over increasingly wide environment ranges.
// (a) the RL policy's mean improvement over the rule-based baseline, when
//     trained AND tested on the same RL1/RL2/RL3 range, shrinks as the
//     range widens;
// (b) the fraction of test environments where the RL policy is worse than
//     the baseline grows.

#include <cstdio>

#include "exp_common.hpp"
#include "netgym/stats.hpp"

namespace {

void run_task(const std::string& task, const std::string& baseline) {
  genet::ModelZoo zoo;
  std::printf("\n(%s vs %s)\n", task.c_str(), baseline.c_str());
  std::printf("%-8s %18s %14s %26s\n", "range", "mean RL - baseline",
              "relative", "frac envs RL < baseline");
  for (int space = 1; space <= 3; ++space) {
    auto adapter = genet::make_adapter(task, space);
    const auto params = bench::traditional_params(zoo, *adapter, /*seed=*/1,
        bench::traditional_iterations(task));
    auto policy = adapter->make_policy(params);

    // Paired evaluation: same configs and env randomness for both policies.
    netgym::Rng crng(515);
    std::vector<double> rl_rewards, rule_rewards;
    for (int i = 0; i < 100; ++i) {
      const netgym::Config config = adapter->space().sample(crng);
      netgym::Rng e1 = crng.fork();
      netgym::Rng e2 = e1;
      auto env_rl = adapter->make_env(config, e1);
      auto env_rule = adapter->make_env(config, e2);
      auto rule = adapter->make_baseline(baseline, *env_rule);
      netgym::Rng p1(1), p2(1);
      rl_rewards.push_back(
          netgym::run_episode(*env_rl, *policy, p1).mean_reward);
      rule_rewards.push_back(
          netgym::run_episode(*env_rule, *rule, p2).mean_reward);
    }
    const double rule_mean = netgym::mean(rule_rewards);
    const double gain = netgym::mean(rl_rewards) - rule_mean;
    // Relative improvement; reward scales differ hugely across ranges (the
    // RL3 CC range reaches 100 Mbps links), so the paper's "diminishing
    // gain" trend reads off this column.
    const double relative =
        std::abs(rule_mean) > 1e-9 ? gain / std::abs(rule_mean) : 0.0;
    const double frac_worse =
        1.0 - netgym::win_fraction(rl_rewards, rule_rewards);
    std::printf("RL%-7d %18.3f %13.1f%% %26.2f\n", space, gain,
                100.0 * relative, frac_worse);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 2 - challenges of training over wide environment ranges",
      "RL's edge over rule-based baselines diminishes from RL1 to RL3, and "
      "RL loses on a substantial fraction of environments");
  run_task("cc", "bbr");
  run_task("abr", "mpc");
  run_task("lb", "llf");
  return bench::finish();
}
