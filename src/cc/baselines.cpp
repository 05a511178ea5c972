#include "cc/baselines.hpp"

#include <algorithm>
#include <cmath>

namespace cc {

RateController::MiView RateController::view(const netgym::Observation& obs) {
  MiView mi;
  mi.rate_pkts = (std::pow(10.0, obs[CcEnv::kObsRate]) - 1.0) * 100.0;
  mi.min_rtt_s = obs[CcEnv::kObsMinRtt];
  const int base = CcEnv::kObsNewestMi;
  mi.avg_rtt_s = (obs[base + 0] + 1.0) * mi.min_rtt_s;
  mi.latency_gradient = obs[base + 1];
  mi.loss_rate = obs[base + 3];
  mi.delivered_mbps = std::pow(10.0, obs[base + 4]) - 1.0;
  mi.delivered_pkts_per_s = mi.delivered_mbps * 1e6 / CcEnv::kPacketBits;
  mi.mi_duration_s = obs[CcEnv::kObsMiDuration];
  return mi;
}

int RateController::act(const netgym::Observation& obs, netgym::Rng& rng) {
  const MiView mi = view(obs);
  const double target = std::max(target_rate_pkts(mi, rng), 1.0);
  // Emit the factor that lands closest (in log space) to the target rate.
  const double current = std::max(mi.rate_pkts, 1.0);
  int best = 0;
  double best_dist = 1e18;
  for (int a = 0; a < kRateActionCount; ++a) {
    const double next = current * kRateFactors[a];
    const double dist = std::abs(std::log(next) - std::log(target));
    if (dist < best_dist) {
      best_dist = dist;
      best = a;
    }
  }
  return best;
}

void CubicPolicy::begin_episode() {
  cwnd_pkts_ = 10.0;
  w_max_ = 0.0;
  k_s_ = 0.0;
  epoch_clock_s_ = 0.0;
  slow_start_ = true;
  initialized_ = false;
}

double CubicPolicy::target_rate_pkts(const MiView& mi, netgym::Rng&) {
  const double rtt = std::max(mi.avg_rtt_s, 1e-3);
  if (!initialized_) {
    initialized_ = true;
    return cwnd_pkts_ / rtt;
  }
  // Any loss in the MI counts as a loss event (Cubic cannot tell random
  // loss apart from congestion loss -- the very weakness S4.2 discusses).
  if (mi.loss_rate > 1e-4) {
    w_max_ = cwnd_pkts_;
    cwnd_pkts_ = std::max(cwnd_pkts_ * kBeta, 2.0);
    k_s_ = std::cbrt(w_max_ * (1.0 - kBeta) / kC);
    epoch_clock_s_ = 0.0;
    slow_start_ = false;
  } else if (slow_start_) {
    cwnd_pkts_ *= 2.0;  // one doubling per RTT-long MI
  } else {
    epoch_clock_s_ += std::max(mi.mi_duration_s, 1e-3);
    const double t = epoch_clock_s_ - k_s_;
    cwnd_pkts_ = std::max(kC * t * t * t + w_max_, 2.0);
  }
  cwnd_pkts_ = std::min(cwnd_pkts_, 1e6);
  return cwnd_pkts_ / rtt;
}

void BbrPolicy::begin_episode() {
  mode_ = Mode::kStartup;
  delivery_samples_.clear();
  full_bw_ = 0.0;
  full_bw_stalls_ = 0;
  cycle_index_ = 0;
  pacing_rate_ = 0.0;
}

double BbrPolicy::btlbw_pkts() const {
  double best = 0.0;
  const std::size_t start =
      delivery_samples_.size() > kBtlBwWindow
          ? delivery_samples_.size() - kBtlBwWindow
          : 0;
  for (std::size_t i = start; i < delivery_samples_.size(); ++i) {
    best = std::max(best, delivery_samples_[i]);
  }
  return best;
}

double BbrPolicy::target_rate_pkts(const MiView& mi, netgym::Rng&) {
  if (mi.delivered_pkts_per_s > 0) {
    delivery_samples_.push_back(mi.delivered_pkts_per_s);
  }
  const double btlbw = std::max(btlbw_pkts(), 1.0);

  switch (mode_) {
    case Mode::kStartup: {
      // Exit startup once the delivery rate stops growing by >= 25%.
      if (btlbw > full_bw_ * 1.25) {
        full_bw_ = btlbw;
        full_bw_stalls_ = 0;
      } else {
        ++full_bw_stalls_;
      }
      if (full_bw_stalls_ >= 3) {
        mode_ = Mode::kDrain;
        pacing_rate_ = btlbw * 0.75;
        return pacing_rate_;
      }
      pacing_rate_ = std::max(mi.rate_pkts * 2.0, 10.0);
      return pacing_rate_;
    }
    case Mode::kDrain: {
      // Queue drained when measured RTT approaches the propagation RTT.
      if (mi.avg_rtt_s <= mi.min_rtt_s * 1.2) {
        mode_ = Mode::kProbeBandwidth;
        cycle_index_ = 0;
      }
      pacing_rate_ = btlbw * 0.75;
      return pacing_rate_;
    }
    case Mode::kProbeBandwidth: {
      // BBRv2-style loss response: heavy loss means the bandwidth estimate
      // is stale (the link faded under us); collapse it to the currently
      // observed delivery rate before resuming the gain cycle.
      if (mi.loss_rate > 0.05 && mi.delivered_pkts_per_s > 0) {
        delivery_samples_.assign(1, mi.delivered_pkts_per_s);
        cycle_index_ = 1;  // start in the drain phase of the cycle
        pacing_rate_ = mi.delivered_pkts_per_s * 0.9;
        return pacing_rate_;
      }
      static constexpr double kGains[kCycleLength] = {1.25, 0.75, 1, 1,
                                                      1,    1,    1, 1};
      const double gain = kGains[cycle_index_];
      cycle_index_ = (cycle_index_ + 1) % kCycleLength;
      pacing_rate_ = btlbw * gain;
      return pacing_rate_;
    }
  }
  return pacing_rate_;
}

void VivacePolicy::begin_episode() {
  prev_rate_ = 0.0;
  prev_utility_ = 0.0;
  direction_ = 1.0;
  streak_ = 0;
  has_prev_ = false;
}

double VivacePolicy::target_rate_pkts(const MiView& mi, netgym::Rng&) {
  const double thr = std::max(mi.delivered_pkts_per_s, 1.0);
  const double utility = std::pow(thr, 0.9) -
                         900.0 * thr * std::max(mi.latency_gradient, 0.0) -
                         11.35 * thr * mi.loss_rate;
  const double rate = std::max(mi.rate_pkts, 1.0);
  if (!has_prev_) {
    has_prev_ = true;
    prev_rate_ = rate;
    prev_utility_ = utility;
    return rate * 1.1;
  }
  // Gradient sign from the last two (rate, utility) samples.
  if (std::abs(rate - prev_rate_) > 1e-9) {
    const double gradient = (utility - prev_utility_) / (rate - prev_rate_);
    const double new_direction = gradient >= 0 ? 1.0 : -1.0;
    if (new_direction == direction_) {
      streak_ = std::min(streak_ + 1, 5);
    } else {
      streak_ = 0;
      direction_ = new_direction;
    }
  }
  prev_rate_ = rate;
  prev_utility_ = utility;
  const double step = 0.05 * (1 + streak_);  // confidence amplification
  return rate * (1.0 + direction_ * step);
}

void CopaPolicy::begin_episode() {
  velocity_ = 1.0;
  last_direction_ = 0.0;
}

double CopaPolicy::target_rate_pkts(const MiView& mi, netgym::Rng&) {
  const double queue_delay = std::max(mi.avg_rtt_s - mi.min_rtt_s, 1e-4);
  const double target = 1.0 / (kDelta * queue_delay);
  const double rate = std::max(mi.rate_pkts, 1.0);
  const double direction = target > rate ? 1.0 : -1.0;
  if (direction == last_direction_) {
    velocity_ = std::min(velocity_ * 2.0, 32.0);
  } else {
    velocity_ = 1.0;
    last_direction_ = direction;
  }
  const double rtt = std::max(mi.avg_rtt_s, 1e-3);
  const double step = velocity_ / (kDelta * rtt);
  return std::max(rate + direction * step, 1.0);
}

double OraclePolicy::target_rate_pkts(const MiView&, netgym::Rng&) {
  const double bw =
      netgym::Trace::Cursor(env_.trace()).bandwidth_at(env_.clock_s());
  return std::max(bw, 0.01) * 1e6 / CcEnv::kPacketBits;
}

}  // namespace cc
