// Figure 10: ABR test reward along individual environment parameters.
// One parameter varies per panel (the paper's six: chunk length, bandwidth
// change interval, link RTT, video length, buffer threshold, bandwidth
// min/max ratio) while the others stay at their Table-3 defaults. Policies:
// Genet(MPC) and traditionally trained RL1/RL2/RL3.

#include <cstdio>

#include "abr/env.hpp"
#include "exp_common.hpp"
#include "netgym/stats.hpp"

namespace {

struct Panel {
  const char* title;
  std::vector<double> values;
  void (*apply)(abr::AbrEnvConfig&, double);
};

double eval_config(netgym::Policy& policy, const abr::AbrEnvConfig& cfg,
                   int n) {
  netgym::Rng rng(99);
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    auto env = abr::make_abr_env(cfg, rng);
    total += netgym::run_episode(*env, policy, rng).mean_reward;
  }
  return total / n;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 10 - ABR reward along individual environment parameters",
      "Genet-trained policies hold a consistent advantage across parameter "
      "values, not by trading some regions for others");

  const Panel panels[] = {
      {"video chunk length (s)", {0.5, 0.8, 2, 5}, [](abr::AbrEnvConfig& c, double v) { c.chunk_length_s = v; }},
      {"BW change interval (s)", {12, 20, 28, 36}, [](abr::AbrEnvConfig& c, double v) { c.bw_change_interval_s = v; }},
      {"link RTT (ms)", {20, 200, 400, 600}, [](abr::AbrEnvConfig& c, double v) { c.min_rtt_ms = v; }},
      {"video length (s)", {50, 90, 130, 170}, [](abr::AbrEnvConfig& c, double v) { c.video_length_s = v; }},
      {"buffer threshold (s)", {10, 60, 140, 220}, [](abr::AbrEnvConfig& c, double v) { c.max_buffer_s = v; }},
      {"BW min/max ratio", {0.3, 0.5, 0.7, 0.9}, [](abr::AbrEnvConfig& c, double v) { c.bw_min_ratio = v; }},
  };

  genet::ModelZoo zoo;
  auto adapter3 = genet::make_adapter("abr", 3);
  struct Entry {
    std::string name;
    std::unique_ptr<rl::MlpPolicy> policy;
  };
  std::vector<Entry> entries;
  entries.push_back({"Genet", adapter3->make_policy(bench::genet_params(
                                  zoo, *adapter3, "mpc", 1))});
  for (int space = 1; space <= 3; ++space) {
    auto adapter = genet::make_adapter("abr", space);
    entries.push_back(
        {"RL" + std::to_string(space),
         adapter3->make_policy(bench::traditional_params(
             zoo, *adapter, 1, bench::traditional_iterations("abr")))});
  }

  for (const Panel& panel : panels) {
    std::printf("\n%s:", panel.title);
    for (double v : panel.values) std::printf(" %10.3g", v);
    std::printf("\n");
    for (Entry& entry : entries) {
      std::vector<double> rewards;
      for (double v : panel.values) {
        abr::AbrEnvConfig cfg;  // Table-3 defaults
        panel.apply(cfg, v);
        rewards.push_back(eval_config(*entry.policy, cfg, 20));
      }
      bench::print_row("  " + entry.name, rewards);
    }
  }
  return bench::finish();
}
