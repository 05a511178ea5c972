// Figure 17: RL-based policies vs rule-based baselines on the QoE frontier.
// CC panels: mean throughput vs 90th-percentile per-MI latency on the
// Cellular and Ethernet trace sets (up and to the left is better). ABR
// panels: mean bitrate vs 90th-percentile rebuffering ratio on FCC and
// Norway. One row per scheme; the paper's claim is that the Genet policy
// sits on the frontier.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "abr/baselines.hpp"
#include "abr/env.hpp"
#include "cc/baselines.hpp"
#include "cc/env.hpp"
#include "exp_common.hpp"
#include "netgym/stats.hpp"
#include "traces/tracesets.hpp"

namespace {

struct NamedPolicy {
  std::string name;
  std::unique_ptr<netgym::Policy> policy;
};

std::vector<NamedPolicy> cc_schemes(genet::ModelZoo& zoo,
                                    const genet::TaskAdapter& adapter) {
  std::vector<NamedPolicy> out;
  out.push_back({"Cubic", std::make_unique<cc::CubicPolicy>()});
  out.push_back({"BBR", std::make_unique<cc::BbrPolicy>()});
  out.push_back({"Vivace", std::make_unique<cc::VivacePolicy>()});
  out.push_back({"Copa", std::make_unique<cc::CopaPolicy>()});
  for (int space = 1; space <= 3; ++space) {
    auto a = genet::make_adapter("cc", space);
    out.push_back({"RL" + std::to_string(space),
                   adapter.make_policy(bench::traditional_params(
                       zoo, *a, 1, bench::traditional_iterations("cc")))});
  }
  out.push_back(
      {"Genet",
       adapter.make_policy(bench::genet_params(zoo, adapter, "bbr", 1))});
  return out;
}

std::vector<NamedPolicy> abr_schemes(genet::ModelZoo& zoo,
                                     const genet::TaskAdapter& adapter) {
  std::vector<NamedPolicy> out;
  out.push_back({"BBA", std::make_unique<abr::BbaPolicy>()});
  out.push_back({"MPC", std::make_unique<abr::RobustMpcPolicy>()});
  out.push_back({"Oboe", std::make_unique<abr::OboePolicy>()});
  for (int space = 1; space <= 3; ++space) {
    auto a = genet::make_adapter("abr", space);
    out.push_back({"RL" + std::to_string(space),
                   adapter.make_policy(bench::traditional_params(
                       zoo, *a, 1, bench::traditional_iterations("abr")))});
  }
  out.push_back(
      {"Genet",
       adapter.make_policy(bench::genet_params(zoo, adapter, "mpc", 1))});
  return out;
}

void cc_panel(traces::TraceSet set) {
  genet::ModelZoo zoo;
  auto adapter = genet::make_adapter("cc", 3);
  const auto corpus = traces::make_corpus(set, true);
  std::printf("\n(CC on %s traces) up-left is better\n",
              traces::info(set).name.c_str());
  std::printf("%-10s %18s %22s\n", "scheme", "mean thpt (Mbps)",
              "p90 latency (ms)");
  for (auto& scheme : cc_schemes(zoo, *adapter)) {
    double thpt = 0.0;
    std::vector<double> latencies;
    netgym::Rng rng(9);
    for (const auto& trace : corpus) {
      auto env_base = adapter->make_env_from_trace(trace, rng);
      auto* env = dynamic_cast<cc::CcEnv*>(env_base.get());
      netgym::run_episode(*env, *scheme.policy, rng);
      thpt += env->totals().mean_throughput_mbps(env->config().duration_s);
      for (double l : env->totals().mi_latencies_s) {
        latencies.push_back(l * 1000);
      }
    }
    // Sort once and take the sorted-input fast path (the corpus sweep makes
    // this the hottest percentile call in the bench suite).
    std::sort(latencies.begin(), latencies.end());
    std::printf("%-10s %18.2f %22.1f\n", scheme.name.c_str(),
                thpt / corpus.size(),
                netgym::percentile_sorted(latencies, 90));
  }
}

void abr_panel(traces::TraceSet set) {
  genet::ModelZoo zoo;
  auto adapter = genet::make_adapter("abr", 3);
  const auto corpus = traces::make_corpus(set, true);
  std::printf("\n(ABR on %s traces) up-left is better\n",
              traces::info(set).name.c_str());
  std::printf("%-10s %20s %26s\n", "scheme", "mean bitrate (Mbps)",
              "p90 rebuffer ratio (%)");
  for (auto& scheme : abr_schemes(zoo, *adapter)) {
    double bitrate = 0.0;
    std::vector<double> ratios;
    netgym::Rng rng(9);
    for (const auto& trace : corpus) {
      auto env_base = adapter->make_env_from_trace(trace, rng);
      auto* env = dynamic_cast<abr::AbrEnv*>(env_base.get());
      netgym::run_episode(*env, *scheme.policy, rng);
      bitrate += env->totals().mean_bitrate_mbps();
      ratios.push_back(
          100 * env->totals().rebuffer_ratio(env->config().chunk_length_s));
    }
    std::sort(ratios.begin(), ratios.end());
    std::printf("%-10s %20.2f %26.2f\n", scheme.name.c_str(),
                bitrate / corpus.size(),
                netgym::percentile_sorted(ratios, 90));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 17 - QoE frontier: RL-based vs rule-based schemes",
      "Genet-trained ABR and CC policies sit on the throughput/latency "
      "(bitrate/rebuffering) frontier across trace sets");
  cc_panel(traces::TraceSet::kCellular);
  cc_panel(traces::TraceSet::kEthernet);
  abr_panel(traces::TraceSet::kFcc);
  abr_panel(traces::TraceSet::kNorway);
  return bench::finish();
}
