// Figure 16 + Tables 6 and 7: tests on fixed wide-area network paths. The
// paper measured five real paths for ABR and three for CC (OpenNetLab nodes
// + home/cloud machines); here each path is a fixed simulated condition
// with the character the paper describes (see DESIGN.md substitution 3) --
// including Path 2 (ABR) whose bandwidth is far above the top bitrate and
// Path 3 (CC) whose queue is deeper than anything in training.

#include <cstdio>

#include "abr/baselines.hpp"
#include "abr/env.hpp"
#include "cc/baselines.hpp"
#include "cc/env.hpp"
#include "exp_common.hpp"
#include "netgym/stats.hpp"

namespace {

struct AbrPath {
  const char* name;
  double max_bw_mbps;
  double bw_min_ratio;
  double bw_change_s;
  double rtt_ms;
};

struct CcPath {
  const char* name;
  double max_bw_mbps;
  double bw_change_s;
  double rtt_ms;
  double queue_pkts;
  double loss;
};

void abr_panel() {
  const AbrPath paths[] = {
      {"Path1 wired->wired", 40.0, 0.8, 30.0, 30.0},
      {"Path2 wired->wifi", 60.0, 0.7, 10.0, 40.0},  // bw >> top bitrate
      {"Path3 wired->cellular", 3.0, 0.15, 3.0, 90.0},
      {"Path4 cloud->wifi", 8.0, 0.4, 8.0, 140.0},
      {"Path5 cloud->wifi (far)", 5.0, 0.3, 6.0, 260.0},
  };
  genet::ModelZoo zoo;
  auto adapter = genet::make_adapter("abr", 3);
  auto genet_policy =
      adapter->make_policy(bench::genet_params(zoo, *adapter, "mpc", 1));

  std::printf("\n(a) ABR paths -- Table 6 breakdown, 5 runs each\n");
  std::printf("%-26s %-7s %10s %12s %12s %9s\n", "path", "scheme",
              "bitrate", "rebuf (s)", "change", "reward");
  for (const AbrPath& path : paths) {
    abr::AbrEnvConfig cfg;
    cfg.max_bw_mbps = path.max_bw_mbps;
    cfg.bw_min_ratio = path.bw_min_ratio;
    cfg.bw_change_interval_s = path.bw_change_s;
    cfg.min_rtt_ms = path.rtt_ms;
    struct Scheme {
      const char* name;
      netgym::Policy* policy;
    };
    abr::RobustMpcPolicy mpc;
    abr::BbaPolicy bba;
    const Scheme schemes[] = {
        {"MPC", &mpc}, {"BBA", &bba}, {"Genet", genet_policy.get()}};
    for (const Scheme& scheme : schemes) {
      double bitrate = 0, rebuf = 0, change = 0, reward = 0;
      constexpr int kRuns = 5;
      netgym::Rng rng(31);
      for (int run = 0; run < kRuns; ++run) {
        auto env = abr::make_abr_env(cfg, rng);
        const auto stats = netgym::run_episode(*env, *scheme.policy, rng);
        bitrate += env->totals().mean_bitrate_mbps();
        rebuf += env->totals().mean_rebuffer_s();
        change += env->totals().mean_change_mbps();
        reward += stats.mean_reward;
      }
      std::printf("%-26s %-7s %10.2f %12.3f %12.3f %9.2f\n", path.name,
                  scheme.name, bitrate / kRuns, rebuf / kRuns,
                  change / kRuns, reward / kRuns);
    }
  }
}

void cc_panel() {
  const CcPath paths[] = {
      {"Path1 wired->wired", 60.0, 20.0, 40.0, 80.0, 0.0},
      {"Path2 wired->cellular", 1.0, 2.0, 160.0, 30.0, 0.01},
      // Queue far deeper than the training range's 200-packet cap: the
      // paper's example of Genet failing outside the training ranges.
      {"Path3 wired->wifi", 8.0, 8.0, 60.0, 1200.0, 0.0},
  };
  genet::ModelZoo zoo;
  auto adapter = genet::make_adapter("cc", 3);
  auto genet_policy =
      adapter->make_policy(bench::genet_params(zoo, *adapter, "bbr", 1));

  std::printf("\n(b) CC paths -- Table 7 breakdown, 5 runs each\n");
  std::printf("%-24s %-7s %12s %16s %10s %10s\n", "path", "scheme",
              "thpt (Mbps)", "p90 latency(ms)", "loss", "reward");
  for (const CcPath& path : paths) {
    cc::CcEnvConfig cfg;
    cfg.max_bw_mbps = path.max_bw_mbps;
    cfg.bw_change_interval_s = path.bw_change_s;
    cfg.min_rtt_ms = path.rtt_ms;
    cfg.queue_packets = path.queue_pkts;
    cfg.loss_rate = path.loss;
    struct Scheme {
      const char* name;
      netgym::Policy* policy;
    };
    cc::BbrPolicy bbr;
    cc::CubicPolicy cubic;
    const Scheme schemes[] = {
        {"BBR", &bbr}, {"Cubic", &cubic}, {"Genet", genet_policy.get()}};
    for (const Scheme& scheme : schemes) {
      double thpt = 0, p90 = 0, loss = 0, reward = 0;
      constexpr int kRuns = 5;
      netgym::Rng rng(31);
      for (int run = 0; run < kRuns; ++run) {
        auto env = cc::make_cc_env(cfg, rng);
        const auto stats = netgym::run_episode(*env, *scheme.policy, rng);
        thpt += env->totals().mean_throughput_mbps(cfg.duration_s);
        p90 += netgym::percentile(env->totals().mi_latencies_s, 90) * 1000;
        loss += env->totals().loss_fraction();
        reward += stats.mean_reward;
      }
      std::printf("%-24s %-7s %12.2f %16.1f %10.4f %10.1f\n", path.name,
                  scheme.name, thpt / kRuns, p90 / kRuns, loss / kRuns,
                  reward / kRuns);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Figure 16 + Tables 6, 7 - fixed-path tests",
      "Genet wins on most paths; ABR Path 2 leaves no room (bandwidth >> "
      "top bitrate) and CC Path 3's deep queue is outside the training "
      "range, where Genet can lose");
  abr_panel();
  cc_panel();
  return bench::finish();
}
