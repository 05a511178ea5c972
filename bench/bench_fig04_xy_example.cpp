// Figures 4 and 5 (+ Appendix A.3): adding trace set X vs trace set Y to
// training has very different effects. X: bandwidth 0-5 Mbps changing every
// 0-2 s (fast, small swings). Y: 0-10 Mbps changing every 4-15 s (slow,
// large swings). Starting from a pretrained ABR policy with poor rewards on
// both, continued training with X promoted improves X only marginally while
// hurting Y; promoting Y improves both. Fig. 5's trace statistics and the
// rule-vs-RL contrast are printed alongside.

#include <cstdio>

#include "abr/baselines.hpp"
#include "abr/env.hpp"
#include "exp_common.hpp"
#include "netgym/stats.hpp"

namespace {

abr::AbrEnvConfig config_x() {
  abr::AbrEnvConfig cfg;
  cfg.max_bw_mbps = 5.0;
  cfg.bw_min_ratio = 0.04;       // "0-5 Mbps"
  cfg.bw_change_interval_s = 2.0;  // fast fluctuation
  return cfg;
}

abr::AbrEnvConfig config_y() {
  abr::AbrEnvConfig cfg;
  cfg.max_bw_mbps = 10.0;
  cfg.bw_min_ratio = 0.02;        // "0-10 Mbps"
  cfg.bw_change_interval_s = 10.0;  // slow, large-magnitude changes
  return cfg;
}

double eval_on(netgym::Policy& policy, const abr::AbrEnvConfig& cfg) {
  netgym::Rng rng(777);
  double total = 0.0;
  constexpr int kTraces = 20;  // A.3: 20 traces per set
  for (int i = 0; i < kTraces; ++i) {
    auto env = abr::make_abr_env(cfg, rng);
    total += netgym::run_episode(*env, policy, rng).mean_reward;
  }
  return total / kTraces;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figures 4 & 5 - why sequencing environments is hard",
      "adding X (larger gap-to-optimum) barely improves X and hurts Y; "
      "adding Y improves both -- gap-to-optimum misleads");

  auto adapter = genet::make_adapter("abr", 3);
  genet::ModelZoo zoo;
  // A competent starting model: the paper pretrains until the policy is
  // reasonable but still poor on both X and Y.
  const auto snapshot =
      bench::traditional_params(zoo, *adapter, /*seed=*/11, 2000);

  // Fig. 5: contrast the two trace families.
  {
    netgym::Rng rng(5);
    auto env_x = abr::make_abr_env(config_x(), rng);
    auto env_y = abr::make_abr_env(config_y(), rng);
    std::printf("\ntrace statistics (Fig. 5)\n");
    std::printf("%-6s %12s %14s %16s\n", "set", "mean BW", "BW variance",
                "non-smoothness");
    bench::print_row("X", {env_x->trace().mean_bandwidth(),
                           env_x->trace().bandwidth_variance(),
                           env_x->trace().non_smoothness()});
    bench::print_row("Y", {env_y->trace().mean_bandwidth(),
                           env_y->trace().bandwidth_variance(),
                           env_y->trace().non_smoothness()});
  }

  auto base_policy = adapter->make_policy(snapshot);
  const double x_before = eval_on(*base_policy, config_x());
  const double y_before = eval_on(*base_policy, config_y());

  // Gap-to-optimum on both sets for the pretrained model (Strawman 3 would
  // promote the larger one).
  netgym::Rng grng(31);
  const double gap_x = genet::gap_to_optimum(
      *adapter, *base_policy, abr::abr_point_from_config(config_x()), 6, grng);
  const double gap_y = genet::gap_to_optimum(
      *adapter, *base_policy, abr::abr_point_from_config(config_y()), 6, grng);
  std::printf("\npretrained model: reward X %.3f, Y %.3f; gap-to-optimum "
              "X %.3f, Y %.3f\n",
              x_before, y_before, gap_x, gap_y);

  // Continue training with one set promoted (w = 0.3, as Genet would).
  auto continue_with = [&](const abr::AbrEnvConfig& promoted) {
    auto trainer = adapter->make_trainer(11);
    trainer->restore(snapshot);
    netgym::ConfigDistribution dist(adapter->space());
    dist.promote(abr::abr_point_from_config(promoted), 0.3);
    const rl::EnvFactory factory = adapter->factory_for(dist);
    for (int i = 0; i < 600; ++i) trainer->train_iteration(factory);
    trainer->policy().set_greedy(true);
    return trainer;
  };

  {
    auto trainer = continue_with(config_x());
    std::printf("\nafter adding X to training:\n");
    bench::print_row("  reward on X (was " + std::to_string(x_before) + ")",
                     {eval_on(trainer->policy(), config_x())});
    bench::print_row("  reward on Y (was " + std::to_string(y_before) + ")",
                     {eval_on(trainer->policy(), config_y())});
  }
  {
    auto trainer = continue_with(config_y());
    std::printf("\nafter adding Y to training:\n");
    bench::print_row("  reward on X (was " + std::to_string(x_before) + ")",
                     {eval_on(trainer->policy(), config_x())});
    bench::print_row("  reward on Y (was " + std::to_string(y_before) + ")",
                     {eval_on(trainer->policy(), config_y())});
  }
  return bench::finish();
}
