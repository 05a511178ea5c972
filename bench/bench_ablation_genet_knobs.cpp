// Ablation (DESIGN.md S6, not a paper figure): sensitivity of Genet to its
// own knobs, on the LB task (cheapest simulator).
//   - promotion weight w in {0.1, 0.3, 0.5}  (paper default 0.3)
//   - BO trials per round in {5, 15}          (paper default 15)
//   - envs per gap estimate k in {3, 10}      (paper default 10)
// Plus the S4.2 "impact of forgetting" probe: reward on the ORIGINAL
// uniform distribution as curriculum rounds progress.

#include <cstdio>

#include "exp_common.hpp"
#include "genet/zoo.hpp"

namespace {

constexpr int kRounds = 9;
constexpr int kItersPerRound = 60;

double run_scheme(const genet::TaskAdapter& adapter,
                  std::unique_ptr<genet::CurriculumScheme> scheme, double w,
                  std::vector<double>* forgetting_curve = nullptr) {
  genet::CurriculumOptions options;
  options.rounds = kRounds;
  options.iters_per_round = kItersPerRound;
  options.promote_weight = w;
  options.seed = 5;
  genet::CurriculumTrainer trainer(adapter, std::move(scheme), options);
  netgym::ConfigDistribution target(adapter.space());
  for (int r = 0; r < kRounds; ++r) {
    trainer.run_round();
    if (forgetting_curve != nullptr) {
      trainer.policy().set_greedy(true);
      netgym::Rng rng(77);
      forgetting_curve->push_back(genet::test_on_distribution(
          adapter, trainer.policy(), target, 40, rng));
      trainer.policy().set_greedy(false);
    }
  }
  trainer.policy().set_greedy(true);
  netgym::Rng rng(77);
  return genet::test_on_distribution(adapter, trainer.policy(), target, 60,
                                     rng);
}

double run_variant(const genet::TaskAdapter& adapter, double w, int bo_trials,
                   int k, std::vector<double>* forgetting_curve = nullptr) {
  genet::SearchOptions search;
  search.bo_trials = bo_trials;
  search.envs_per_eval = k;
  return run_scheme(adapter,
                    std::make_unique<genet::GenetScheme>("llf", search), w,
                    forgetting_curve);
}

/// Results are cached in the model zoo (deterministic given the seed) so
/// re-running the harness is cheap.
double cached(genet::ModelZoo& zoo, const std::string& key,
              const std::function<double()>& compute) {
  return zoo.get_or_train(key, [&] {
    std::fprintf(stderr, "[train] %s ...\n", key.c_str());
    return std::vector<double>{compute()};
  })[0];
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Ablation - Genet's own hyperparameters (LB task)",
      "design-choice sensitivity called out in DESIGN.md: promotion weight, "
      "BO budget, gap-estimate sample count, and the forgetting probe");

  // RL2 ranges: episodes cap at 1000 jobs, keeping the 7-variant sweep fast.
  auto adapter = genet::make_adapter("lb", 2);
  genet::ModelZoo zoo;

  std::printf("\npromotion weight w (BO trials 15, k 10):\n");
  for (double w : {0.1, 0.3, 0.5}) {
    const std::string label = std::to_string(w).substr(0, 3);
    bench::print_row("  w = " + label,
                     {cached(zoo, "lb-ablation-w" + label, [&] {
                        return run_variant(*adapter, w, 15, 10);
                      })});
  }

  std::printf("\nBO trials per round (w 0.3, k 10):\n");
  for (int trials : {5, 15}) {
    bench::print_row("  trials = " + std::to_string(trials),
                     {cached(zoo, "lb-ablation-t" + std::to_string(trials),
                             [&] { return run_variant(*adapter, 0.3, trials, 10); })});
  }

  std::printf("\nenvs per gap estimate k (w 0.3, trials 15):\n");
  for (int k : {3, 10}) {
    bench::print_row("  k = " + std::to_string(k),
                     {cached(zoo, "lb-ablation-k" + std::to_string(k),
                             [&] { return run_variant(*adapter, 0.3, 15, k); })});
  }

  std::printf("\ncurriculum-signal variants (w 0.3, trials 15, k 10):\n");
  {
    genet::SearchOptions search;
    bench::print_row("  gap-to-LLF (Genet)",
                     {cached(zoo, "lb-ablation-scheme-genet", [&] {
                        return run_scheme(
                            *adapter,
                            std::make_unique<genet::GenetScheme>("llf",
                                                                 search),
                            0.3);
                      })});
    bench::print_row("  ensemble of baselines",
                     {cached(zoo, "lb-ablation-scheme-ensemble", [&] {
                        return run_scheme(
                            *adapter,
                            std::make_unique<genet::EnsembleGenetScheme>(
                                std::vector<std::string>{"llf", "shortest",
                                                         "po2"},
                                search),
                            0.3);
                      })});
    bench::print_row("  self-play reference",
                     {cached(zoo, "lb-ablation-scheme-selfplay", [&] {
                        return run_scheme(
                            *adapter,
                            std::make_unique<genet::SelfPlayScheme>(search),
                            0.3);
                      })});
  }

  // Backend-transfer probe: the CC policy trained on the fluid simulator,
  // evaluated on the discrete-event per-packet simulator (same obs/action
  // contract). A small degradation is expected; a collapse would mean the
  // policy latched onto fluid-model artifacts.
  // Gap-closure probe: does training on a promoted configuration actually
  // close its gap-to-baseline? We run one Genet curriculum, then re-measure
  // the gap at every promoted configuration with the FINAL policy. Columns:
  // gap at selection time vs gap for the final model (selection-time gaps
  // are the BO's maxima; closed gaps should be much smaller).
  std::printf("\ngap closure at promoted configs (LB, gap-to-LLF):\n");
  {
    const std::vector<double> pairs =
        zoo.get_or_train("lb-ablation-gapclosure", [&] {
          std::fprintf(stderr, "[train] lb-ablation-gapclosure ...\n");
          genet::SearchOptions search;
          genet::CurriculumOptions options;
          options.rounds = kRounds;
          options.iters_per_round = kItersPerRound;
          options.seed = 5;
          genet::CurriculumTrainer trainer(
              *adapter, std::make_unique<genet::GenetScheme>("llf", search),
              options);
          const auto records = trainer.run();
          trainer.policy().set_greedy(true);
          netgym::Rng rng(4242);
          std::vector<double> flat;
          for (const auto& record : records) {
            netgym::Rng g = rng.fork();
            flat.push_back(record.selection_score);
            flat.push_back(genet::gap_to_baseline(*adapter, trainer.policy(),
                                                  "llf", record.promoted, 10,
                                                  g));
          }
          return flat;
        });
    std::printf("%-10s %14s %14s\n", "round", "gap@select", "gap@final");
    for (std::size_t r = 0; r * 2 + 1 < pairs.size(); ++r) {
      std::printf("%-10zu %14.3f %14.3f\n", r, pairs[2 * r],
                  pairs[2 * r + 1]);
    }
  }

  std::printf("\nCC backend transfer (RL3 policy, 50 envs each):\n");
  {
    auto fluid = genet::make_adapter("cc", 3);
    auto packet = std::make_unique<genet::CcAdapter>(
        3, genet::TraceMixOptions{}, /*use_packet_sim=*/true);
    const auto params = bench::traditional_params(
        zoo, *fluid, 1, bench::traditional_iterations("cc"));
    auto policy = fluid->make_policy(params);
    netgym::ConfigDistribution dist(fluid->space());
    netgym::Rng r1(77), r2(77);
    bench::print_row("  fluid backend",
                     {genet::test_on_distribution(*fluid, *policy, dist, 50,
                                                  r1)});
    bench::print_row("  packet backend",
                     {genet::test_on_distribution(*packet, *policy, dist, 50,
                                                  r2)});
  }

  std::printf("\nforgetting probe: reward on the ORIGINAL uniform "
              "distribution per round (w 0.3)\n");
  const std::vector<double> curve =
      zoo.get_or_train("lb-ablation-forgetting", [&] {
        std::fprintf(stderr, "[train] lb-ablation-forgetting ...\n");
        std::vector<double> c;
        run_variant(*adapter, 0.3, 15, 10, &c);
        return c;
      });
  std::printf("%-10s", "round");
  for (int r = 1; r <= kRounds; ++r) std::printf(" %8d", r);
  std::printf("\n");
  bench::print_row("reward", curve, 8, 3);
  std::printf("(S4.2: the original distribution keeps 0.7^9 ~ 4%% of the "
              "mass, so mild forgetting is expected but not collapse)\n");
  return bench::finish();
}
