// Figure 3: generalization failures of traditionally trained RL-based CC.
// (a) An RL policy trained on the synthetic range of the original Aurora
//     paper beats BBR on fresh synthetic environments, but loses to BBR on
//     the Cellular and Ethernet trace sets.
// (b) A policy trained on Cellular traces degrades on Ethernet traces, and
//     vice versa, again relative to BBR.

#include <cstdio>

#include "cc/baselines.hpp"
#include "exp_common.hpp"
#include "netgym/stats.hpp"
#include "traces/tracesets.hpp"

namespace {

/// The synthetic training range of the original Aurora paper (Table 4's
/// "Original" column).
netgym::ConfigSpace aurora_original_space() {
  using P = netgym::ParamSpec;
  return netgym::ConfigSpace({P{"max_bw_mbps", 1.2, 6, false, true},
                              P{"min_rtt_ms", 100, 500, false, true},
                              P{"bw_change_interval_s", 0, 30},
                              P{"loss_rate", 0, 0.05},
                              P{"queue_packets", 2, 200, false, true}});
}

double mean_per_trace(const genet::TaskAdapter& adapter,
                      netgym::Policy& policy, traces::TraceSet set) {
  netgym::Rng rng(9);
  const auto corpus = traces::make_corpus(set, /*test=*/true);
  return netgym::mean(genet::test_per_trace(adapter, policy, corpus, rng));
}

/// Train a CC policy on trace-driven environments from one set.
std::vector<double> trace_trained_params(genet::ModelZoo& zoo,
                                         traces::TraceSet set,
                                         const std::string& name) {
  genet::TraceMixOptions mix;
  mix.corpus = traces::make_corpus(set, /*test=*/false);
  mix.trace_prob = 1.0;  // train on recorded traces only
  auto adapter = genet::make_adapter("cc", 3, std::move(mix));
  const std::string key = "cc-tracetrained-" + name + "-seed1";
  return zoo.get_or_train(key, [&] {
    std::fprintf(stderr, "[train] %s ...\n", key.c_str());
    auto trainer = genet::train_traditional(
        *adapter, bench::traditional_iterations("cc"), 1);
    return trainer->snapshot();
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 3 - generalization issues of RL-based CC",
      "synthetic-trained CC wins on synthetic tests but loses to BBR on "
      "real trace sets; cross-trace-set transfer degrades similarly");

  genet::ModelZoo zoo;
  auto adapter = genet::make_adapter("cc", 3);
  cc::BbrPolicy bbr;

  // --- Panel (a): train on Aurora's original synthetic range. -------------
  const netgym::ConfigSpace original = aurora_original_space();
  const auto synth_params = zoo.get_or_train("cc-original-range-seed1", [&] {
    std::fprintf(stderr, "[train] cc-original-range-seed1 ...\n");
    netgym::ConfigDistribution dist(original);
    auto trainer = genet::train_traditional(
        *adapter, dist, bench::traditional_iterations("cc"), 1);
    return trainer->snapshot();
  });
  auto synth_policy = adapter->make_policy(synth_params);

  {
    netgym::ConfigDistribution dist(original);
    netgym::Rng r1(42), r2(42);
    const double rl = genet::test_on_distribution(*adapter, *synth_policy,
                                                  dist, 60, r1);
    const double rule =
        genet::test_on_distribution(*adapter, bbr, dist, 60, r2);
    std::printf("\n(a) synthetic-trained CC policy\n");
    std::printf("%-34s %10s %10s\n", "test set", "RL", "BBR");
    bench::print_row("synthetic (training range)", {rl, rule});
  }
  for (auto set : {traces::TraceSet::kEthernet, traces::TraceSet::kCellular}) {
    const double rl = mean_per_trace(*adapter, *synth_policy, set);
    const double rule = mean_per_trace(*adapter, bbr, set);
    bench::print_row("trace set " + traces::info(set).name, {rl, rule});
  }

  // --- Panel (b): cross-trace-set transfer. --------------------------------
  const auto cell_params =
      trace_trained_params(zoo, traces::TraceSet::kCellular, "cellular");
  const auto eth_params =
      trace_trained_params(zoo, traces::TraceSet::kEthernet, "ethernet");
  auto cell_policy = adapter->make_policy(cell_params);
  auto eth_policy = adapter->make_policy(eth_params);

  std::printf("\n(b) cross-trace-set transfer (mean reward per test trace)\n");
  std::printf("%-34s %10s %10s %10s\n", "test set", "cell-RL", "eth-RL",
              "BBR");
  for (auto set : {traces::TraceSet::kCellular, traces::TraceSet::kEthernet}) {
    bench::print_row("tested on " + traces::info(set).name,
                     {mean_per_trace(*adapter, *cell_policy, set),
                      mean_per_trace(*adapter, *eth_policy, set),
                      mean_per_trace(*adapter, bbr, set)});
  }
  return bench::finish();
}
