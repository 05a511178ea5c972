// Figure 15: how often does the RL policy beat the rule-based baseline it
// was (or wasn't) trained against? For ABR (baselines MPC and BBA) and CC
// (BBR and Cubic), we report the fraction of test traces where each policy
// -- RL1/RL2/RL3 and Genet(baseline) -- scores higher than the baseline.

#include <cstdio>

#include "exp_common.hpp"
#include "netgym/stats.hpp"
#include "traces/tracesets.hpp"

namespace {

void run_panel(const std::string& task, const std::string& baseline,
               const std::vector<traces::TraceSet>& sets) {
  genet::ModelZoo zoo;
  auto adapter3 = genet::make_adapter(task, 3);

  // Baseline rewards per trace (all test sets of the task pooled).
  std::vector<netgym::Trace> corpus;
  for (auto set : sets) {
    auto split = traces::make_corpus(set, /*test=*/true);
    corpus.insert(corpus.end(), split.begin(), split.end());
  }
  netgym::Rng env_rng(1);
  auto probe = adapter3->make_env(adapter3->space().midpoint(), env_rng);
  auto rule = adapter3->make_baseline(baseline, *probe);
  netgym::Rng r0(9);
  const auto rule_rewards =
      genet::test_per_trace(*adapter3, *rule, corpus, r0);

  std::printf("\n(%s vs %s, %zu traces) %% of traces where policy beats the "
              "baseline\n",
              task.c_str(), baseline.c_str(), corpus.size());

  for (int space = 1; space <= 3; ++space) {
    auto adapter = genet::make_adapter(task, space);
    const auto params = bench::traditional_params(
        zoo, *adapter, 1, bench::traditional_iterations(task));
    auto policy = adapter3->make_policy(params);
    netgym::Rng rng(9);
    const auto rewards =
        genet::test_per_trace(*adapter3, *policy, corpus, rng);
    bench::print_row("RL" + std::to_string(space),
                     {100.0 * netgym::win_fraction(rewards, rule_rewards)},
                     8, 1);
  }
  {
    const auto params = bench::genet_params(zoo, *adapter3, baseline, 1);
    auto policy = adapter3->make_policy(params);
    netgym::Rng rng(9);
    const auto rewards =
        genet::test_per_trace(*adapter3, *policy, corpus, rng);
    bench::print_row("Genet (" + baseline + ")",
                     {100.0 * netgym::win_fraction(rewards, rule_rewards)},
                     8, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 15 - fraction of traces where the RL policy beats the "
      "rule-based baseline",
      "Genet-trained policies beat the baseline they were trained against "
      "far more often than RL1/RL2/RL3 do");
  const std::vector<traces::TraceSet> abr_sets{traces::TraceSet::kFcc,
                                               traces::TraceSet::kNorway};
  const std::vector<traces::TraceSet> cc_sets{traces::TraceSet::kCellular,
                                              traces::TraceSet::kEthernet};
  run_panel("abr", "mpc", abr_sets);
  run_panel("abr", "bba", abr_sets);
  run_panel("cc", "bbr", cc_sets);
  run_panel("cc", "cubic", cc_sets);
  return bench::finish();
}
