#include "abr/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace abr {

namespace {

double buffer_from_obs(const netgym::Observation& obs) {
  return obs[AbrEnv::kObsBuffer] * 30.0;
}

double max_buffer_from_obs(const netgym::Observation& obs) {
  return obs[AbrEnv::kObsMaxBuffer] * 100.0;
}

double chunk_length_from_obs(const netgym::Observation& obs) {
  return obs[AbrEnv::kObsChunkLength] * 10.0;
}

void check_horizon(const char* who, int horizon) {
  if (horizon <= 0 || horizon > kMaxMpcHorizon) {
    throw std::invalid_argument(std::string(who) + ": horizon must be in [1, " +
                                std::to_string(kMaxMpcHorizon) + "]");
  }
}

}  // namespace

int mpc_best_first_action(const netgym::Observation& obs,
                          double predicted_throughput_mbps, int horizon) {
  check_horizon("mpc_best_first_action", horizon);
  const double throughput = std::max(predicted_throughput_mbps, 1e-3);
  const double chunk_len = std::max(chunk_length_from_obs(obs), 0.1);
  const double capacity = std::max(max_buffer_from_obs(obs), 1.0);
  const double rtt_s = obs[AbrEnv::kObsMinRtt];
  const double start_buffer = buffer_from_obs(obs);
  const int last_bitrate = static_cast<int>(
      std::lround(obs[AbrEnv::kObsLastBitrate] * (kBitrateCount - 1)));
  if (last_bitrate < 0 || last_bitrate >= kBitrateCount) {
    throw std::out_of_range("mpc_best_first_action: last bitrate out of range");
  }

  // Per-bitrate quantities, hoisted out of the search. Each is the exact
  // expression (same operands, same order) a search node would evaluate, so
  // every node performs the same floating-point operations as the plain
  // exhaustive enumeration. The first chunk uses the observed next-chunk
  // sizes; later chunks use the nominal ladder size.
  double mbps[kBitrateCount];
  double first_download_s[kBitrateCount];
  double later_download_s[kBitrateCount];
  double change[kBitrateCount][kBitrateCount];
  for (int b = 0; b < kBitrateCount; ++b) {
    mbps[b] = bitrate_mbps(b);
    first_download_s[b] =
        obs[AbrEnv::kObsNextSizes + b] * 8.0 / throughput + rtt_s;
    const double size_mb = bitrate_kbps(b) * 1000.0 * chunk_len / 8e6;
    later_download_s[b] = size_mb * 8.0 / throughput + rtt_s;
  }
  for (int last = 0; last < kBitrateCount; ++last) {
    for (int b = 0; b < kBitrateCount; ++b) {
      change[last][b] = std::abs(mbps[b] - mbps[last]);
    }
  }
  const double top_mbps = *std::max_element(mbps, mbps + kBitrateCount);

  double best_reward = -1e18;
  int best_first = 0;
  auto search = [&](auto&& self, int depth, double buffer, int last,
                    int first, double reward) -> void {
    // Upper bound on every leaf below: each remaining chunk adds at most
    // top_mbps, summed in the leaf's own left-to-right order. At a leaf
    // (nothing remaining) this is the plain "reward > best_reward" test.
    double bound = reward;
    for (int d = depth; d < horizon; ++d) bound += top_mbps;
    if (!(bound > best_reward)) return;
    if (depth == horizon) {
      best_reward = reward;
      best_first = first;
      return;
    }
    const double* download = depth == 0 ? first_download_s : later_download_s;
    for (int b = 0; b < kBitrateCount; ++b) {
      const double download_s = download[b];
      const double rebuffer = std::max(download_s - buffer, 0.0);
      double new_buffer = std::max(buffer - download_s, 0.0) + chunk_len;
      new_buffer = std::min(new_buffer, capacity);
      const double r = mbps[b] - 10.0 * rebuffer - change[last][b];
      self(self, depth + 1, new_buffer, b, depth == 0 ? b : first,
           reward + r);
    }
  };
  search(search, 0, start_buffer, last_bitrate, 0, 0.0);
  return best_first;
}

int BbaPolicy::act(const netgym::Observation& obs, netgym::Rng&) {
  const double buffer = buffer_from_obs(obs);
  const double capacity = std::max(max_buffer_from_obs(obs), 1.0);
  const double chunk_len = std::max(chunk_length_from_obs(obs), 0.1);
  // Reservoir: a floor of playback runway before leaving the lowest rate;
  // upper threshold: where the highest rate becomes safe. The cushion is at
  // least two chunk durations so that players whose buffer capacity is
  // smaller than a few chunks (Table 3 allows 2 s buffers with 10 s chunks)
  // stay conservative instead of pinning to the top rate.
  const double reservoir =
      std::min(std::max(0.1 * capacity, chunk_len), 0.4 * capacity);
  const double upper =
      reservoir + std::max(0.75 * capacity, 2.0 * chunk_len);
  if (buffer <= reservoir) return 0;
  if (buffer >= upper) return kBitrateCount - 1;
  const double fraction = (buffer - reservoir) / (upper - reservoir);
  const int index = static_cast<int>(fraction * (kBitrateCount - 1) + 0.5);
  return std::clamp(index, 0, kBitrateCount - 1);
}

RobustMpcPolicy::RobustMpcPolicy(int horizon) : horizon_(horizon) {
  check_horizon("RobustMpcPolicy", horizon);
}

void RobustMpcPolicy::begin_episode() {
  last_prediction_mbps_ = 0.0;
  max_error_ = 0.0;
}

double RobustMpcPolicy::predict_throughput_mbps(
    const netgym::Observation& obs) {
  // Harmonic mean of the non-zero throughput history (up to 5 most recent).
  double inv_sum = 0.0;
  int count = 0;
  for (int i = AbrEnv::kThroughputHistory - 1;
       i >= 0 && count < 5; --i) {
    const double mbps =
        std::pow(10.0, obs[AbrEnv::kObsThroughputHist + i]) - 1.0;
    if (mbps > 1e-6) {
      inv_sum += 1.0 / mbps;
      ++count;
    }
  }
  const double harmonic = count > 0 ? count / inv_sum : 1.0;
  // Track the relative error of the previous prediction against the newest
  // actual sample, keeping the max over the episode so far (RobustMPC keeps
  // a window; an episode-max is the conservative variant).
  const double latest =
      std::pow(10.0,
               obs[AbrEnv::kObsThroughputHist + AbrEnv::kThroughputHistory - 1]) -
      1.0;
  if (last_prediction_mbps_ > 1e-6 && latest > 1e-6) {
    const double err =
        std::abs(last_prediction_mbps_ - latest) / latest;
    max_error_ = std::max(max_error_ * 0.9, err);  // slowly forget
  }
  const double robust = harmonic / (1.0 + max_error_);
  last_prediction_mbps_ = robust;
  return std::max(robust, 1e-3);
}

int RobustMpcPolicy::act(const netgym::Observation& obs, netgym::Rng&) {
  const double throughput = predict_throughput_mbps(obs);
  return mpc_best_first_action(obs, throughput, horizon_);
}

OboePolicy::OboePolicy(int horizon) : horizon_(horizon) {
  check_horizon("OboePolicy", horizon);
}

int OboePolicy::act(const netgym::Observation& obs, netgym::Rng&) {
  // Oboe-style auto-tuning: the throughput prediction's safety discount is
  // set from the observed network state (mean and coefficient of variation
  // of recent throughput), rather than from online error tracking.
  double sum = 0.0, sq = 0.0;
  int count = 0;
  for (int i = 0; i < AbrEnv::kThroughputHistory; ++i) {
    const double mbps =
        std::pow(10.0, obs[AbrEnv::kObsThroughputHist + i]) - 1.0;
    if (mbps > 1e-6) {
      sum += mbps;
      sq += mbps * mbps;
      ++count;
    }
  }
  if (count == 0) return 0;  // no signal yet: be conservative
  const double mean = sum / count;
  const double var = std::max(sq / count - mean * mean, 0.0);
  const double cv = std::sqrt(var) / std::max(mean, 1e-6);
  const double discounted = mean / (1.0 + 1.5 * cv);
  return mpc_best_first_action(obs, discounted, horizon_);
}

int NaiveAbrPolicy::act(const netgym::Observation& obs, netgym::Rng&) {
  const double buffer = buffer_from_obs(obs);
  return buffer < 1.0 ? kBitrateCount - 1 : 0;
}

ConstantBitratePolicy::ConstantBitratePolicy(int bitrate_index)
    : bitrate_index_(bitrate_index) {
  if (bitrate_index < 0 || bitrate_index >= kBitrateCount) {
    throw std::invalid_argument("ConstantBitratePolicy: index out of range");
  }
}

int ConstantBitratePolicy::act(const netgym::Observation&, netgym::Rng&) {
  return bitrate_index_;
}

}  // namespace abr
