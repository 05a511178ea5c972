// Figure 12: asymptotic performance when real traces are available during
// training. Traditional RL draws trace-driven environments with ratio
// 5/10/20/50/100% (synthetic otherwise); Genet mixes traces with its default
// 30% rule while running its curriculum. All policies are tested on
// trace-driven environments built from the held-out test split.

#include <cstdio>

#include "exp_common.hpp"
#include "netgym/stats.hpp"
#include "traces/tracesets.hpp"

namespace {

void run_task(const std::string& task,
              const std::vector<traces::TraceSet>& sets,
              const std::string& baseline) {
  genet::ModelZoo zoo;

  std::vector<netgym::Trace> train_corpus, test_corpus;
  for (auto set : sets) {
    auto train = traces::make_corpus(set, false);
    auto test = traces::make_corpus(set, true);
    train_corpus.insert(train_corpus.end(), train.begin(), train.end());
    test_corpus.insert(test_corpus.end(), test.begin(), test.end());
  }
  auto plain_adapter = genet::make_adapter(task, 3);

  auto eval = [&](netgym::Policy& policy) {
    netgym::Rng rng(9);
    return netgym::mean(
        genet::test_per_trace(*plain_adapter, policy, test_corpus, rng));
  };

  std::printf("\n(%s, tested on %zu held-out traces)\n", task.c_str(),
              test_corpus.size());

  for (double ratio : {0.05, 0.10, 0.20, 0.50, 1.00}) {
    genet::TraceMixOptions mix;
    mix.corpus = train_corpus;
    mix.trace_prob = ratio;
    auto adapter = genet::make_adapter(task, 3, std::move(mix));
    char key[128];
    std::snprintf(key, sizeof(key), "%s-mix%02d-seed1", task.c_str(),
                  static_cast<int>(ratio * 100));
    const auto params = zoo.get_or_train(key, [&] {
      std::fprintf(stderr, "[train] %s ...\n", key);
      auto trainer = genet::train_traditional(
          *adapter, bench::traditional_iterations(task), 1);
      return trainer->snapshot();
    });
    auto policy = plain_adapter->make_policy(params);
    char label[64];
    std::snprintf(label, sizeof(label), "RL (synth + %3.0f%% real)",
                  ratio * 100);
    bench::print_row(label, {eval(*policy)});
  }

  {
    genet::TraceMixOptions mix;
    mix.corpus = train_corpus;  // Genet's default 30% trace rule (S4.2)
    auto adapter = genet::make_adapter(task, 3, std::move(mix));
    const std::string key = task + "-genet-mix-" + baseline + "-seed1";
    const auto params = bench::curriculum_params(
        zoo, *adapter, key,
        [&] {
          return std::make_unique<genet::GenetScheme>(
              baseline, bench::search_options());
        },
        1);
    auto policy = plain_adapter->make_policy(params);
    bench::print_row("Genet (synth + real)", {eval(*policy)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 12 - training with real traces mixed into synthetic "
      "environments",
      "Genet outperforms traditional RL by 17-18% regardless of the real "
      "trace ratio used by the traditional training");
  run_task("cc", {traces::TraceSet::kCellular, traces::TraceSet::kEthernet},
           "bbr");
  run_task("abr", {traces::TraceSet::kFcc, traces::TraceSet::kNorway},
           "mpc");
  return bench::finish();
}
