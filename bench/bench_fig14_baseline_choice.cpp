// Figure 14 (+ the S5.4 naive-baseline discussion): Genet trained against
// different rule-based baselines. Each Genet(baseline) policy is compared
// with the baseline that guided it, on fresh RL3-range environments. A
// Genet run guided by the deliberately unreasonable "naive" ABR baseline is
// included: its BO search finds no useful environments (the policy beats
// naive everywhere), so it degenerates to roughly traditional training.

#include <cstdio>

#include "exp_common.hpp"
#include "netgym/stats.hpp"

namespace {

void compare(const std::string& task, const std::string& baseline) {
  genet::ModelZoo zoo;
  auto adapter = genet::make_adapter(task, 3);
  netgym::ConfigDistribution target(adapter->space());

  const auto params = bench::genet_params(zoo, *adapter, baseline, 1);
  auto policy = adapter->make_policy(params);
  netgym::Rng r1(77), r2(77);
  const double rl =
      genet::test_on_distribution(*adapter, *policy, target, 120, r1);
  netgym::Rng env_rng(1);
  auto probe = adapter->make_env(adapter->space().midpoint(), env_rng);
  auto rule = adapter->make_baseline(baseline, *probe);
  const double rb =
      genet::test_on_distribution(*adapter, *rule, target, 120, r2);
  std::printf("%-6s Genet(%-6s) %10.3f   vs rule-based %-6s %10.3f   %s\n",
              task.c_str(), baseline.c_str(), rl, baseline.c_str(), rb,
              rl > rb ? "[Genet wins]" : "[baseline wins]");
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 14 - impact of the rule-based baseline choice",
      "Genet-trained policies outperform whichever reasonable baseline "
      "guided them; a naive baseline gives no curriculum signal");
  compare("abr", "mpc");
  compare("abr", "bba");
  compare("cc", "bbr");
  compare("cc", "cubic");

  // Naive-baseline ablation (S5.4): once the policy is competent, the BO
  // search cannot find environments where the naive rule wins -- the
  // selection signal degenerates and Genet reduces to traditional training.
  {
    genet::ModelZoo zoo;
    auto adapter = genet::make_adapter("abr", 3);
    genet::CurriculumTrainer trainer(
        *adapter,
        std::make_unique<genet::GenetScheme>("naive", bench::search_options()),
        [] {
          auto o = bench::curriculum_options("abr", 1);
          o.rounds = 3;
          o.iters_per_round = 50;  // short: we only probe the signal
          return o;
        }());
    // Start from the already-trained RL3 policy, as in the paper (the naive
    // baseline is swapped in for a developed model, not a fresh one).
    trainer.trainer().restore(bench::traditional_params(
        zoo, *adapter, 1, bench::traditional_iterations("abr")));
    std::printf("\nGenet guided by the naive ABR baseline "
                "(3 short rounds from the trained RL3 model):\n");
    for (int r = 0; r < 3; ++r) {
      const genet::CurriculumRound round = trainer.run_round();
      std::printf("  round %d: best gap-to-naive found by BO = %.3f%s\n",
                  round.round, round.selection_score,
                  round.selection_score < 0.5
                      ? "  (no rewarding environment exists)"
                      : "");
    }
  }
  return bench::finish();
}
