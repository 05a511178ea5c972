#include "cc/env.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netgym/telemetry.hpp"

namespace cc {

namespace {
constexpr double kFluidSliceS = 0.01;
constexpr double kMinRatePkts = 5.0;
constexpr double kMaxRatePkts = 40000.0;  // ~480 Mbps headroom above RL3 max
}  // namespace

netgym::ConfigSpace cc_config_space(int which) {
  using P = netgym::ParamSpec;
  switch (which) {
    case 1:  // RL1 (Table 4; example 1/9-width slice of RL3)
      return netgym::ConfigSpace({P{"max_bw_mbps", 0.5, 7, false, true},
                                  P{"min_rtt_ms", 205, 250, false, true},
                                  P{"bw_change_interval_s", 11, 13},
                                  P{"loss_rate", 0.01, 0.014},
                                  P{"queue_packets", 2, 6, false, true}});
    case 2:  // RL2 (1/3-width slice)
      return netgym::ConfigSpace({P{"max_bw_mbps", 0.4, 14, false, true},
                                  P{"min_rtt_ms", 156, 288, false, true},
                                  P{"bw_change_interval_s", 3, 8},
                                  P{"loss_rate", 0.007, 0.02},
                                  P{"queue_packets", 2, 11, false, true}});
    case 3:  // RL3 (full ranges)
      return netgym::ConfigSpace({P{"max_bw_mbps", 0.1, 100, false, true},
                                  P{"min_rtt_ms", 10, 400, false, true},
                                  P{"bw_change_interval_s", 0, 30},
                                  P{"loss_rate", 0, 0.05},
                                  P{"queue_packets", 2, 200, false, true}});
    default:
      throw std::invalid_argument("cc_config_space: which must be 1..3");
  }
}

CcEnvConfig cc_config_from_point(const netgym::Config& point) {
  if (point.values.size() != 5) {
    throw std::invalid_argument("cc_config_from_point: expected 5 values");
  }
  CcEnvConfig cfg;
  cfg.max_bw_mbps = point.values[0];
  cfg.min_rtt_ms = point.values[1];
  cfg.bw_change_interval_s = point.values[2];
  cfg.loss_rate = point.values[3];
  cfg.queue_packets = point.values[4];
  return cfg;
}

netgym::Config cc_point_from_config(const CcEnvConfig& cfg) {
  return netgym::Config{{cfg.max_bw_mbps, cfg.min_rtt_ms,
                         cfg.bw_change_interval_s, cfg.loss_rate,
                         cfg.queue_packets}};
}

double CcEnv::Totals::mean_throughput_mbps(double duration_s) const {
  if (duration_s <= 0) return 0.0;
  return delivered_pkts * kPacketBits / 1e6 / duration_s;
}

double CcEnv::Totals::loss_fraction() const {
  return sent_pkts > 0 ? lost_pkts / sent_pkts : 0.0;
}

double CcEnv::Totals::mean_latency_s() const {
  return delivered_pkts > 0 ? latency_weighted_s / delivered_pkts : 0.0;
}

CcEnv::CcEnv(CcEnvConfig config, netgym::Trace trace, std::uint64_t seed)
    : config_(config), trace_(std::move(trace)), rng_(seed) {
  trace_.validate();
  if (trace_.empty() || trace_.duration_s() <= 0) {
    throw std::invalid_argument("CcEnv: trace must cover a positive span");
  }
  if (config_.min_rtt_ms <= 0 || config_.queue_packets < 1 ||
      config_.loss_rate < 0 || config_.loss_rate >= 1 ||
      config_.duration_s <= 0) {
    throw std::invalid_argument("CcEnv: invalid config");
  }
}

double CcEnv::current_rtt_s() const {
  const double bw_pkts =
      std::max(netgym::Trace::Cursor(trace_).bandwidth_at(clock_s_), 0.01) *
      1e6 / kPacketBits;
  return config_.min_rtt_ms / 1000.0 + queue_pkts_ / bw_pkts;
}

netgym::Observation CcEnv::reset() {
  // Cheap run telemetry: one relaxed atomic add per episode/step, no RNG.
  static netgym::telemetry::Counter& episodes =
      netgym::telemetry::Registry::instance().counter("cc.episodes");
  episodes.add();
  flight_ = netgym::flight::begin_episode(
      "cc", {"queue_delay_s", "rate_pkts_per_s"});
  clock_s_ = 0.0;
  queue_pkts_ = 0.0;
  done_ = false;
  // Start around 1 Mbps regardless of the link: the policy must discover the
  // capacity itself (same convention as Aurora's simulator).
  rate_pkts_ = 1e6 / kPacketBits * rng_.uniform(0.7, 1.3);
  history_ = {};
  totals_ = {};
  return make_observation();
}

CcEnv::MiStats CcEnv::simulate_interval(double duration_s) {
  MiStats stats;
  stats.duration_s = duration_s;
  netgym::Trace::Cursor bandwidth(trace_);
  double t = 0.0;
  double latency_acc = 0.0;   // delivered-weighted latency
  while (t < duration_s - 1e-12) {
    const double dt = std::min(kFluidSliceS, duration_s - t);
    const double bw_pkts =
        std::max(bandwidth.bandwidth_at(clock_s_ + t), 0.01) * 1e6 /
        kPacketBits;

    const double sent = rate_pkts_ * dt;
    const double random_lost = sent * config_.loss_rate;
    double arriving = sent - random_lost;

    // FIFO queue: overflow beyond capacity is dropped (congestion loss).
    const double room = std::max(config_.queue_packets - queue_pkts_, 0.0);
    const double overflow = std::max(arriving - room - bw_pkts * dt, 0.0);
    arriving -= overflow;
    queue_pkts_ = std::min(queue_pkts_ + arriving, config_.queue_packets);

    const double served = std::min(queue_pkts_, bw_pkts * dt);
    queue_pkts_ -= served;

    // Per-packet latency: propagation + queueing delay at service time.
    double latency =
        config_.min_rtt_ms / 1000.0 + queue_pkts_ / bw_pkts;
    if (config_.delay_noise_ms > 0) {
      latency += std::abs(rng_.gaussian(0.0, config_.delay_noise_ms / 1000.0));
    }
    latency_acc += latency * served;

    stats.sent += sent;
    stats.lost += random_lost + overflow;
    stats.delivered += served;
    t += dt;
  }
  stats.avg_latency_s = stats.delivered > 0
                            ? latency_acc / stats.delivered
                            : current_rtt_s();
  return stats;
}

netgym::Env::StepResult CcEnv::step(int action) {
  if (done_) throw std::logic_error("CcEnv::step: episode already finished");
  static netgym::telemetry::Counter& steps =
      netgym::telemetry::Registry::instance().counter("cc.env_steps");
  steps.add();
  if (action < 0 || action >= kRateActionCount) {
    throw std::invalid_argument("CcEnv::step: action out of range");
  }
  rate_pkts_ = std::clamp(rate_pkts_ * kRateFactors[action], kMinRatePkts,
                          kMaxRatePkts);

  // One monitor interval = one (current) RTT, floored so very short RTTs do
  // not explode the step count.
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
      stats.delivered * kPacketBits / 1e6 / stats.duration_s;
  const double loss = stats.sent > 0 ? stats.lost / stats.sent : 0.0;
  // Latency enters the reward as the average one-way packet delay (half the
  // measured RTT), which reproduces the reward scales of the paper's
  // figures; see CcRewardWeights.
  const double reward = config_.reward.a_throughput * throughput_mbps +
                        config_.reward.b_latency * stats.avg_latency_s / 2.0 +
                        config_.reward.c_loss * loss;

  done_ = clock_s_ >= config_.duration_s;

  // Per-MI queueing delay (measured latency minus propagation): the
  // env-internal distribution behind the paper's latency tails.
  const double queue_delay_s =
      std::max(stats.avg_latency_s - config_.min_rtt_ms / 1000.0, 0.0);
  static netgym::telemetry::Histogram& queue_delay =
      netgym::telemetry::Registry::instance().histogram("cc.queue_delay_s");
  queue_delay.record(queue_delay_s);
  if (flight_ != nullptr) {
    flight_->add(action, reward, {queue_delay_s, rate_pkts_});
  }
  if (done_) netgym::flight::submit(std::move(flight_));

  StepResult result;
  result.reward = reward;
  result.done = done_;
  result.observation = make_observation();
  return result;
}

void CcEnv::push_mi(const MiStats& stats) {
  for (std::size_t i = 0; i + 1 < history_.size(); ++i) {
    history_[i] = history_[i + 1];
  }
  history_.back() = stats;
}

netgym::Observation CcEnv::make_observation() const {
  netgym::Observation obs(kObsSize, 0.0);
  const double min_rtt_s = config_.min_rtt_ms / 1000.0;
  double prev_latency = 0.0;
  for (int i = 0; i < kMiHistory; ++i) {
    const MiStats& mi = history_[static_cast<std::size_t>(i)];
    const int base = i * kFeaturesPerMi;
    if (mi.duration_s <= 0) {
      prev_latency = 0.0;
      continue;  // untouched slot (early in the episode)
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
        1.0 + mi.delivered * kPacketBits / 1e6 / mi.duration_s);
    prev_latency = mi.avg_latency_s;
  }
  obs[kObsRate] = std::log10(1.0 + rate_pkts_ / 100.0);
  obs[kObsMinRtt] = min_rtt_s;
  obs[kObsMiDuration] = history_.back().duration_s;
  return obs;
}

std::unique_ptr<CcEnv> make_cc_env(const CcEnvConfig& config,
                                   netgym::Rng& rng) {
  netgym::CcTraceParams params;
  params.max_bw_mbps = std::max(config.max_bw_mbps, 0.05);
  params.bw_change_interval_s = config.bw_change_interval_s;
  params.duration_s = config.duration_s;
  netgym::Trace trace = generate_cc_trace(params, rng);
  return std::make_unique<CcEnv>(config, std::move(trace), rng.engine()());
}

std::unique_ptr<CcEnv> make_cc_env(const CcEnvConfig& config,
                                   const netgym::Trace& trace,
                                   netgym::Rng& rng) {
  return std::make_unique<CcEnv>(config, trace, rng.engine()());
}

}  // namespace cc
