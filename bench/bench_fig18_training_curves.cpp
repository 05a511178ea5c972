// Figure 18 (+ Figure 22): training curves of Genet vs traditional RL3 and
// the three alternative curricula of S3/S5.5 on ABR. Test reward on the
// full target distribution is measured after every curriculum round (same
// iteration grid for every scheme). Figure 22's follow-up: giving RL3 and
// CL3 twice the iterations still does not close the gap -- we report their
// rewards at 2x budget.

#include <cstdio>
#include <functional>

#include "exp_common.hpp"

namespace {

constexpr int kRounds = 9;
constexpr int kItersPerRound = 667;
constexpr int kTestEnvs = 60;

double test_now(const genet::TaskAdapter& adapter, rl::MlpPolicy& policy,
                const netgym::ConfigDistribution& target) {
  policy.set_greedy(true);
  netgym::Rng rng(77);
  const double r =
      genet::test_on_distribution(adapter, policy, target, kTestEnvs, rng);
  policy.set_greedy(false);
  return r;
}

/// Curve for a curriculum scheme, one point per round. Cached in the model
/// zoo (training is deterministic from the seed, so cached curves equal
/// recomputed ones).
std::vector<double> curriculum_curve(
    genet::ModelZoo& zoo, const std::string& key,
    const genet::TaskAdapter& adapter,
    const netgym::ConfigDistribution& target,
    std::function<std::unique_ptr<genet::CurriculumScheme>()> make_scheme) {
  return zoo.get_or_train(key, [&] {
    std::fprintf(stderr, "[train] %s ...\n", key.c_str());
    genet::CurriculumOptions options;
    options.rounds = kRounds;
    options.iters_per_round = kItersPerRound;
    options.seed = 1;
    genet::CurriculumTrainer trainer(adapter, make_scheme(), options);
    std::vector<double> curve;
    for (int r = 0; r < kRounds; ++r) {
      trainer.run_round();
      curve.push_back(test_now(adapter, trainer.policy(), target));
    }
    return curve;
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 18 + Figure 22 - training curves of curriculum strategies "
      "(ABR)",
      "Genet's curve ramps up faster than RL3 and CL1/CL2/CL3; doubling "
      "RL3/CL3's iterations does not close the gap");

  auto adapter = genet::make_adapter("abr", 3);
  netgym::ConfigDistribution target(adapter->space());
  genet::SearchOptions search = bench::search_options();
  genet::ModelZoo zoo;

  std::printf("\ntest reward after every %d training iterations:\n",
              kItersPerRound);
  std::printf("%-18s", "iterations");
  for (int r = 1; r <= kRounds; ++r) std::printf(" %8d", r * kItersPerRound);
  std::printf("\n");

  // Traditional RL3 on the same iteration grid (and 2x for Fig. 22); the
  // last element of the cached vector is the 2x-budget endpoint.
  const std::vector<double> rl3_data =
      zoo.get_or_train("abr-curve-rl3-seed1", [&] {
        std::fprintf(stderr, "[train] abr-curve-rl3-seed1 ...\n");
        auto trainer = adapter->make_trainer(1);
        netgym::ConfigDistribution dist(adapter->space());
        const rl::EnvFactory factory = adapter->factory_for(dist);
        std::vector<double> data;
        for (int r = 0; r < 2 * kRounds; ++r) {
          for (int i = 0; i < kItersPerRound; ++i) {
            trainer->train_iteration(factory);
          }
          if (r < kRounds) {
            data.push_back(test_now(*adapter, trainer->policy(), target));
          }
        }
        data.push_back(test_now(*adapter, trainer->policy(), target));
        return data;
      });
  const std::vector<double> rl3_curve(rl3_data.begin(),
                                      rl3_data.end() - 1);
  const double rl3_double = rl3_data.back();

  const auto genet_curve =
      curriculum_curve(zoo, "abr-curve-genet-seed1", *adapter, target, [&] {
        return std::make_unique<genet::GenetScheme>("mpc", search);
      });
  const auto cl1_curve =
      curriculum_curve(zoo, "abr-curve-cl1-seed1", *adapter, target, [&] {
        // Handcrafted difficulty: faster bandwidth fluctuation is harder.
        return std::make_unique<genet::HandcraftedScheme>(
            "bw_change_interval_s", /*hard_is_low=*/true, kRounds);
      });
  const auto cl2_curve =
      curriculum_curve(zoo, "abr-curve-cl2-seed1", *adapter, target, [&] {
        return std::make_unique<genet::BaselinePerformanceScheme>("mpc",
                                                                  search);
      });
  genet::SearchOptions cl3_search = search;
  cl3_search.envs_per_eval = 6;  // optimum estimation is expensive
  const auto cl3_curve =
      curriculum_curve(zoo, "abr-curve-cl3-seed1", *adapter, target, [&] {
        return std::make_unique<genet::GapToOptimumScheme>(cl3_search);
      });

  bench::print_row("Genet", genet_curve, 8, 3);
  bench::print_row("RL3", rl3_curve, 8, 3);
  bench::print_row("CL1 (handcrafted)", cl1_curve, 8, 3);
  bench::print_row("CL2 (baseline)", cl2_curve, 8, 3);
  bench::print_row("CL3 (gap-to-opt)", cl3_curve, 8, 3);

  // Fig. 22: double-budget runs.
  std::printf("\nFigure 22 - final reward at 2x training budget:\n");
  bench::print_row("RL3 @ 2x iterations", {rl3_double});
  {
    const std::vector<double> cl3_double =
        zoo.get_or_train("abr-curve-cl3double-seed1", [&] {
          std::fprintf(stderr, "[train] abr-curve-cl3double-seed1 ...\n");
          genet::CurriculumOptions options;
          options.rounds = 2 * kRounds;
          options.iters_per_round = kItersPerRound;
          options.seed = 1;
          genet::CurriculumTrainer trainer(
              *adapter,
              std::make_unique<genet::GapToOptimumScheme>(cl3_search),
              options);
          trainer.run();
          return std::vector<double>{
              test_now(*adapter, trainer.policy(), target)};
        });
    bench::print_row("CL3 @ 2x iterations", cl3_double);
  }
  bench::print_row("Genet @ 1x (reference)", {genet_curve.back()});
  return bench::finish();
}
