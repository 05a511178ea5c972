// Table 1: RL use cases and their reward definitions. Prints the reward
// weights wired into each simulator and verifies them on one concrete
// episode step per task, decomposing the observed reward into its terms.

#include <cstdio>

#include "abr/env.hpp"
#include "cc/env.hpp"
#include "exp_common.hpp"
#include "lb/env.hpp"

int main(int argc, char** argv) {
  bench::print_header(argc, argv,
      "Table 1 - reward definitions",
      "ABR: sum(a*Rebuf + b*Bitrate + g*|Change|)/n, a=-10/s, b=1/Mbps, "
      "g=-1/Mbps; CC: sum(a*Thpt + b*Lat + c*Loss)/n, a=120/Mbps, b=-1000/s "
      "(one-way), c=-2000; LB: -sum(Delay)/n seconds");

  {
    const abr::RewardWeights w;
    std::printf("\nABR weights: alpha(rebuffer) %.1f  beta(bitrate) %.1f  "
                "gamma(change) %.1f\n",
                w.alpha_rebuffer, w.beta_bitrate, w.gamma_change);
    abr::AbrEnvConfig config;
    netgym::Rng rng(1);
    auto env = abr::make_abr_env(config, rng);
    env->reset();
    const auto out = env->chunk_transition(0, 0, 0, false, 0, 3);
    std::printf("  sample chunk @ ladder 3: bitrate %.2f Mbps, rebuffer "
                "%.2f s -> reward %.3f (= %.2f - 10*%.2f)\n",
                abr::bitrate_mbps(3), out.rebuffer_s, out.reward,
                abr::bitrate_mbps(3), out.rebuffer_s);
  }
  {
    const cc::CcRewardWeights w;
    std::printf("\nCC weights: a(throughput) %.1f  b(latency) %.1f  "
                "c(loss) %.1f\n",
                w.a_throughput, w.b_latency, w.c_loss);
    cc::CcEnvConfig config;
    netgym::Rng rng(1);
    auto env = cc::make_cc_env(config, rng);
    env->reset();
    const auto result = env->step(4);  // hold rate
    std::printf("  sample monitor interval: reward %.2f\n", result.reward);
  }
  {
    std::printf("\nLB reward: negative job completion delay (seconds)\n");
    lb::LbEnvConfig config;
    netgym::Rng rng(1);
    auto env = lb::make_lb_env(config, rng);
    env->reset();
    const double job = env->current_job_bytes();
    const auto result = env->step(0);
    std::printf("  sample job of %.0f bytes on server 0 (%.0f B/s): reward "
                "%.3f (= -delay)\n",
                job, env->server_rate_bytes_per_s(0), result.reward);
  }
  return bench::finish();
}
