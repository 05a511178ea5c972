// Figure 13: generalization test. Policies trained ENTIRELY on synthetic
// environments (RL1/RL2/RL3 traditional + Genet) are tested on the four
// real-trace stand-in sets: Cellular and Ethernet for CC, FCC and Norway
// for ABR. Four panels, mean reward per test trace.

#include <cstdio>

#include "exp_common.hpp"
#include "netgym/stats.hpp"
#include "traces/tracesets.hpp"

namespace {

void run_panel(const std::string& task, const std::string& baseline,
               traces::TraceSet set) {
  genet::ModelZoo zoo;
  auto adapter3 = genet::make_adapter(task, 3);
  const auto corpus = traces::make_corpus(set, /*test=*/true);

  std::printf("\n(%s tested on %s traces, %zu traces)\n", task.c_str(),
              traces::info(set).name.c_str(), corpus.size());

  for (int space = 1; space <= 3; ++space) {
    auto adapter = genet::make_adapter(task, space);
    const auto params = bench::traditional_params(
        zoo, *adapter, 1, bench::traditional_iterations(task));
    auto policy = adapter3->make_policy(params);
    netgym::Rng rng(9);
    bench::print_row(
        "RL" + std::to_string(space),
        {netgym::mean(genet::test_per_trace(*adapter3, *policy, corpus, rng))});
  }
  {
    const auto params =
        bench::genet_params(zoo, *adapter3, baseline, 1);
    auto policy = adapter3->make_policy(params);
    netgym::Rng rng(9);
    bench::print_row(
        "Genet (" + baseline + ")",
        {netgym::mean(genet::test_per_trace(*adapter3, *policy, corpus, rng))});
  }
  {
    netgym::Rng env_rng(1);
    auto probe = adapter3->make_env(adapter3->space().midpoint(), env_rng);
    auto rule = adapter3->make_baseline(baseline, *probe);
    netgym::Rng rng(9);
    bench::print_row(
        "rule-based " + baseline,
        {netgym::mean(genet::test_per_trace(*adapter3, *rule, corpus, rng))});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 13 - generalization from synthetic training to trace-driven "
      "tests",
      "Genet-trained policies, trained only on synthetic environments, "
      "outperform traditional RL on every real trace set");
  run_panel("cc", "bbr", traces::TraceSet::kCellular);
  run_panel("cc", "bbr", traces::TraceSet::kEthernet);
  run_panel("abr", "mpc", traces::TraceSet::kFcc);
  run_panel("abr", "mpc", traces::TraceSet::kNorway);
  return bench::finish();
}
