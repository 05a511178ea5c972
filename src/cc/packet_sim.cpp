#include "cc/packet_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cc {

namespace {
constexpr double kMinRatePkts = 5.0;
constexpr double kMaxRatePkts = 40000.0;
}  // namespace

PacketCcEnv::PacketCcEnv(CcEnvConfig config, netgym::Trace trace,
                         std::uint64_t seed)
    : config_(config), trace_(std::move(trace)), rng_(seed) {
  trace_.validate();
  if (trace_.empty() || trace_.duration_s() <= 0) {
    throw std::invalid_argument("PacketCcEnv: trace must cover a positive span");
  }
  if (config_.min_rtt_ms <= 0 || config_.queue_packets < 1 ||
      config_.loss_rate < 0 || config_.loss_rate >= 1 ||
      config_.duration_s <= 0) {
    throw std::invalid_argument("PacketCcEnv: invalid config");
  }
}

double PacketCcEnv::current_rtt_s() const {
  const double queue_delay =
      std::max(last_depart_s_ - clock_s_, 0.0);
  return config_.min_rtt_ms / 1000.0 + queue_delay;
}

netgym::Observation PacketCcEnv::reset() {
  clock_s_ = 0.0;
  done_ = false;
  rate_pkts_ = 1e6 / CcEnv::kPacketBits * rng_.uniform(0.7, 1.3);
  next_send_s_ = 0.0;
  last_depart_s_ = 0.0;
  queue_departures_.clear();
  history_ = {};
  totals_ = {};
  return make_observation();
}

PacketCcEnv::MiStats PacketCcEnv::simulate_interval(double duration_s) {
  MiStats stats;
  stats.duration_s = duration_s;
  const double end_s = clock_s_ + duration_s;
  double latency_acc = 0.0;

  // Emit packets at the pacing rate until the MI ends.
  netgym::Trace::Cursor bandwidth(trace_);
  const double gap = 1.0 / rate_pkts_;
  while (next_send_s_ < end_s) {
    const double now = next_send_s_;
    next_send_s_ += gap;
    stats.sent += 1.0;

    // Random (non-congestion) loss.
    if (rng_.bernoulli(config_.loss_rate)) {
      stats.lost += 1.0;
      continue;
    }

    // Drain the queue of packets that departed before this arrival.
    while (!queue_departures_.empty() && queue_departures_.front() <= now) {
      queue_departures_.pop_front();
    }
    // Tail drop on overflow.
    if (static_cast<double>(queue_departures_.size()) >=
        config_.queue_packets) {
      stats.lost += 1.0;
      continue;
    }

    const double bw_pkts = std::max(bandwidth.bandwidth_at(now), 0.01) * 1e6 /
                           CcEnv::kPacketBits;
    const double service = 1.0 / bw_pkts;
    const double depart = std::max(now, last_depart_s_) + service;
    last_depart_s_ = depart;
    queue_departures_.push_back(depart);

    double latency = (depart - now) + config_.min_rtt_ms / 1000.0;
    if (config_.delay_noise_ms > 0) {
      latency += std::abs(rng_.gaussian(0.0, config_.delay_noise_ms / 1000.0));
    }
    latency_acc += latency;
    stats.delivered += 1.0;
  }

  stats.avg_latency_s = stats.delivered > 0
                            ? latency_acc / stats.delivered
                            : current_rtt_s();
  return stats;
}

netgym::Env::StepResult PacketCcEnv::step(int action) {
  if (done_) {
    throw std::logic_error("PacketCcEnv::step: episode already finished");
  }
  if (action < 0 || action >= kRateActionCount) {
    throw std::invalid_argument("PacketCcEnv::step: action out of range");
  }
  rate_pkts_ = std::clamp(rate_pkts_ * kRateFactors[action], kMinRatePkts,
                          kMaxRatePkts);

  const double mi = std::clamp(current_rtt_s(), 0.05, 2.0);
  const MiStats stats = simulate_interval(mi);
  clock_s_ += mi;

  push_mi(stats);
  totals_.sent_pkts += stats.sent;
  totals_.delivered_pkts += stats.delivered;
  totals_.lost_pkts += stats.lost;
  totals_.latency_weighted_s += stats.avg_latency_s * stats.delivered;
  totals_.mi_latencies_s.push_back(stats.avg_latency_s);

  const double throughput_mbps =
      stats.delivered * CcEnv::kPacketBits / 1e6 / stats.duration_s;
  const double loss = stats.sent > 0 ? stats.lost / stats.sent : 0.0;
  const double reward = config_.reward.a_throughput * throughput_mbps +
                        config_.reward.b_latency * stats.avg_latency_s / 2.0 +
                        config_.reward.c_loss * loss;

  done_ = clock_s_ >= config_.duration_s;
  StepResult result;
  result.reward = reward;
  result.done = done_;
  result.observation = make_observation();
  return result;
}

void PacketCcEnv::push_mi(const MiStats& stats) {
  for (std::size_t i = 0; i + 1 < history_.size(); ++i) {
    history_[i] = history_[i + 1];
  }
  history_.back() = stats;
}

netgym::Observation PacketCcEnv::make_observation() const {
  netgym::Observation obs(kObsSize, 0.0);
  const double min_rtt_s = config_.min_rtt_ms / 1000.0;
  double prev_latency = 0.0;
  for (int i = 0; i < CcEnv::kMiHistory; ++i) {
    const MiStats& mi = history_[static_cast<std::size_t>(i)];
    const int base = i * CcEnv::kFeaturesPerMi;
    if (mi.duration_s <= 0) {
      prev_latency = 0.0;
      continue;
    }
    obs[base + 0] = mi.avg_latency_s / min_rtt_s - 1.0;
    obs[base + 1] = prev_latency > 0
                        ? (mi.avg_latency_s - prev_latency) / mi.duration_s
                        : 0.0;
    const double send_ratio =
        mi.delivered > 1e-9 ? mi.sent / mi.delivered : 11.0;
    obs[base + 2] = std::min(send_ratio - 1.0, 10.0);
    obs[base + 3] = mi.sent > 0 ? mi.lost / mi.sent : 0.0;
    obs[base + 4] = std::log10(
        1.0 + mi.delivered * CcEnv::kPacketBits / 1e6 / mi.duration_s);
    prev_latency = mi.avg_latency_s;
  }
  obs[CcEnv::kObsRate] = std::log10(1.0 + rate_pkts_ / 100.0);
  obs[CcEnv::kObsMinRtt] = min_rtt_s;
  obs[CcEnv::kObsMiDuration] = history_.back().duration_s;
  return obs;
}

std::unique_ptr<PacketCcEnv> make_packet_cc_env(const CcEnvConfig& config,
                                                netgym::Rng& rng) {
  netgym::CcTraceParams params;
  params.max_bw_mbps = std::max(config.max_bw_mbps, 0.05);
  params.bw_change_interval_s = config.bw_change_interval_s;
  params.duration_s = config.duration_s;
  netgym::Trace trace = generate_cc_trace(params, rng);
  return std::make_unique<PacketCcEnv>(config, std::move(trace),
                                       rng.engine()());
}

std::unique_ptr<PacketCcEnv> make_packet_cc_env(const CcEnvConfig& config,
                                                const netgym::Trace& trace,
                                                netgym::Rng& rng) {
  return std::make_unique<PacketCcEnv>(config, trace, rng.engine()());
}

}  // namespace cc
