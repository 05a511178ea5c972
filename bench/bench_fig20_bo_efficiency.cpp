// Figure 20: BO-based search finds environment configurations with large
// gap-to-baseline faster than random exploration or coordinate grid search.
// For an intermediate ABR model (and an intermediate CC model), we run each
// maximizer over the config space and report best-gap-found vs number of
// samples explored.

#include <cstdio>
#include <memory>

#include "bo/search.hpp"
#include "exp_common.hpp"

namespace {

void run_panel(const std::string& task, const std::string& baseline,
               int pretrain_iters) {
  auto adapter = genet::make_adapter(task, 3);
  genet::ModelZoo zoo;
  const auto params =
      bench::traditional_params(zoo, *adapter, /*seed=*/1, pretrain_iters);
  auto policy = adapter->make_policy(params);

  const netgym::ConfigSpace& space = adapter->space();
  const int dims = static_cast<int>(space.dims());
  netgym::Rng rng(2026);
  auto evaluate = [&](const std::vector<double>& unit) {
    return genet::gap_to_baseline(*adapter, *policy, baseline,
                                  space.denormalize(unit), /*n=*/5, rng);
  };

  constexpr int kBudget = 50;
  const int checkpoints[] = {1, 3, 5, 8, 11, 15, 20, 30, 50};

  std::printf("\n(%s) gap-to-%s found vs #samples explored\n", task.c_str(),
              baseline.c_str());
  std::printf("%-10s", "samples");
  for (int c : checkpoints) std::printf(" %8d", c);
  std::printf("\n");

  std::vector<std::unique_ptr<bo::Maximizer>> searchers;
  std::vector<std::string> names;
  searchers.push_back(std::make_unique<bo::BayesianOptimizer>(dims, 7));
  names.push_back("BO-based (EI)");
  {
    bo::BayesianOptimizer::Options ucb;
    ucb.acquisition = bo::BayesianOptimizer::Acquisition::kUpperConfidenceBound;
    searchers.push_back(std::make_unique<bo::BayesianOptimizer>(dims, 7, ucb));
    names.push_back("BO-based (UCB)");
  }
  searchers.push_back(std::make_unique<bo::RandomSearch>(dims, 7));
  names.push_back("Random");
  searchers.push_back(std::make_unique<bo::GridSearch>(dims, 10));
  names.push_back("Grid");

  for (std::size_t s = 0; s < searchers.size(); ++s) {
    std::vector<double> best_at;
    for (int i = 1; i <= kBudget; ++i) {
      const auto x = searchers[s]->propose();
      searchers[s]->update(x, evaluate(x));
      for (int c : checkpoints) {
        if (i == c) best_at.push_back(searchers[s]->best_value());
      }
    }
    bench::print_row(names[s], best_at, 8, 3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 20 - search efficiency of the sequencing module",
      "within ~15 BO steps the search matches what random exploration needs "
      "~100 points for; grid search converges slower");
  run_panel("abr", "mpc", 1000);
  run_panel("cc", "bbr", 200);
  return bench::finish();
}
