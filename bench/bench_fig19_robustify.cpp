// Figure 19: comparison with "Robustifying" [19]. Genet's BO criterion is
// replaced by Robustify's: maximize the gap between the offline optimum and
// the current RL model, penalized by bandwidth non-smoothness with weight
// rho in {0.1, 0.5, 1.0}. The resulting ABR policies are tested on the
// full synthetic target distribution next to Genet(MPC) and MPC itself.

#include <cstdio>

#include "abr/baselines.hpp"
#include "exp_common.hpp"
#include "genet/robustify.hpp"

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 19 - Genet vs Robustify-style adversarial trace selection",
      "BO with Robustify's regret-minus-smoothness criterion lands below "
      "Genet; the non-smoothness penalty misjudges which environments are "
      "improvable (cf. Fig. 5)");

  genet::ModelZoo zoo;
  auto adapter = genet::make_adapter("abr", 3);
  netgym::ConfigDistribution target(adapter->space());
  auto evaluate = [&](netgym::Policy& policy) {
    netgym::Rng rng(77);
    return genet::test_on_distribution(*adapter, policy, target, 120, rng);
  };

  {
    abr::RobustMpcPolicy mpc;
    bench::print_row("MPC", {evaluate(mpc)});
  }
  // The full Robustify pipeline (A.6): adversarial bandwidth generator
  // trained against the policy, adversarial traces mixed into retraining.
  {
    const auto params = zoo.get_or_train("abr-robustify-full-seed1", [&] {
      std::fprintf(stderr, "[train] abr-robustify-full-seed1 ...\n");
      genet::RobustifyOptions options;  // rho = 1, as in the paper
      auto trainer = genet::robustify_train(
          /*space_id=*/3, /*pretrain_iters=*/3000, /*retrain_iters=*/1500,
          /*alternations=*/2, options, 1);
      return trainer->snapshot();
    });
    auto policy = adapter->make_policy(params);
    bench::print_row("Robustify (adversarial gen)", {evaluate(*policy)});
  }

  genet::SearchOptions search = bench::search_options();
  search.envs_per_eval = 6;  // offline-optimal evaluations are expensive
  for (double rho : {0.1, 0.5, 1.0}) {
    char key[64];
    std::snprintf(key, sizeof(key), "abr-robustify-rho%03d-seed1",
                  static_cast<int>(rho * 100));
    const auto params = bench::curriculum_params(
        zoo, *adapter, key,
        [&] { return std::make_unique<genet::RobustifyScheme>(rho, search); },
        1);
    auto policy = adapter->make_policy(params);
    char label[64];
    std::snprintf(label, sizeof(label), "BO w/ Robustify reward, rho=%.1f",
                  rho);
    bench::print_row(label, {evaluate(*policy)});
  }
  {
    auto policy =
        adapter->make_policy(bench::genet_params(zoo, *adapter, "mpc", 1));
    bench::print_row("Genet", {evaluate(*policy)});
  }
  return bench::finish();
}
