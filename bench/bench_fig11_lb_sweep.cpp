// Figure 11: LB test reward along job size and job inter-arrival interval,
// other parameters at their Table-5 defaults. Policies: Genet(LLF) and
// traditionally trained RL1/RL2/RL3.

#include <cstdio>

#include "exp_common.hpp"
#include "lb/env.hpp"

namespace {

double eval_config(netgym::Policy& policy, const lb::LbEnvConfig& cfg,
                   int n) {
  netgym::Rng rng(99);
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    auto env = lb::make_lb_env(cfg, rng);
    total += netgym::run_episode(*env, policy, rng).mean_reward;
  }
  return total / n;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 11 - LB reward along individual environment parameters",
      "the Genet-trained LB policy outperforms traditional RL by ~15% "
      "across job sizes and arrival intervals");

  genet::ModelZoo zoo;
  auto adapter3 = genet::make_adapter("lb", 3);
  struct Entry {
    std::string name;
    std::unique_ptr<rl::MlpPolicy> policy;
  };
  std::vector<Entry> entries;
  entries.push_back(
      {"Genet", adapter3->make_policy(
                    bench::genet_params(zoo, *adapter3, "llf", 1))});
  for (int space = 1; space <= 3; ++space) {
    auto adapter = genet::make_adapter("lb", space);
    entries.push_back(
        {"RL" + std::to_string(space),
         adapter3->make_policy(bench::traditional_params(
             zoo, *adapter, 1, bench::traditional_iterations("lb")))});
  }

  {
    const std::vector<double> sizes{500, 2000, 5000, 10000};
    std::printf("\njob size (bytes):");
    for (double v : sizes) std::printf(" %10.3g", v);
    std::printf("\n");
    for (Entry& entry : entries) {
      std::vector<double> rewards;
      for (double v : sizes) {
        lb::LbEnvConfig cfg;
        cfg.job_size_bytes = v;
        rewards.push_back(eval_config(*entry.policy, cfg, 20));
      }
      bench::print_row("  " + entry.name, rewards);
    }
  }
  {
    const std::vector<double> intervals{0.02, 0.05, 0.09, 0.13};
    std::printf("\njob interval (s):");
    for (double v : intervals) std::printf(" %10.3g", v);
    std::printf("\n");
    for (Entry& entry : entries) {
      std::vector<double> rewards;
      for (double v : intervals) {
        lb::LbEnvConfig cfg;
        cfg.job_interval_s = v;
        rewards.push_back(eval_config(*entry.policy, cfg, 20));
      }
      bench::print_row("  " + entry.name, rewards);
    }
  }
  return bench::finish();
}
