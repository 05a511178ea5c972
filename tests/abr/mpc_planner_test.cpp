// Differential exactness test for the MPC planner (abr/baselines.hpp): the
// branch-and-bound abr::mpc_best_first_action must return the same first
// action as plain exhaustive enumeration of every bitrate sequence, on real
// RL3 observations, on edge cases, at horizons 1-6, and inside both policies
// that use it (RobustMPC and Oboe).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "abr/baselines.hpp"
#include "abr/env.hpp"

namespace {

using abr::AbrEnv;
using abr::kBitrateCount;
using netgym::Observation;
using netgym::Rng;

// ---------------------------------------------------------------------------
// Oracle: the exhaustive enumerator, verbatim, visiting all 6^horizon leaves.
// ---------------------------------------------------------------------------

double buffer_from_obs(const Observation& obs) {
  return obs[AbrEnv::kObsBuffer] * 30.0;
}

double max_buffer_from_obs(const Observation& obs) {
  return obs[AbrEnv::kObsMaxBuffer] * 100.0;
}

double chunk_length_from_obs(const Observation& obs) {
  return obs[AbrEnv::kObsChunkLength] * 10.0;
}

int exhaustive_best_first_action(const Observation& obs,
                                 double predicted_throughput_mbps,
                                 int horizon) {
  using abr::bitrate_kbps;
  using abr::bitrate_mbps;
  const double throughput = std::max(predicted_throughput_mbps, 1e-3);
  const double chunk_len = std::max(chunk_length_from_obs(obs), 0.1);
  const double capacity = std::max(max_buffer_from_obs(obs), 1.0);
  const double rtt_s = obs[AbrEnv::kObsMinRtt];
  const double start_buffer = buffer_from_obs(obs);
  const int last_bitrate = static_cast<int>(
      std::lround(obs[AbrEnv::kObsLastBitrate] * (kBitrateCount - 1)));

  double best_reward = -1e18;
  int best_first = 0;
  std::vector<int> seq(static_cast<std::size_t>(horizon), 0);
  auto simulate = [&](auto&& self, int depth, double buffer, int last,
                      double reward) -> void {
    if (depth == horizon) {
      if (reward > best_reward) {
        best_reward = reward;
        best_first = seq[0];
      }
      return;
    }
    for (int b = 0; b < kBitrateCount; ++b) {
      seq[static_cast<std::size_t>(depth)] = b;
      const double size_mb =
          depth == 0 ? obs[AbrEnv::kObsNextSizes + b]
                     : bitrate_kbps(b) * 1000.0 * chunk_len / 8e6;
      const double download_s = size_mb * 8.0 / throughput + rtt_s;
      const double rebuffer = std::max(download_s - buffer, 0.0);
      double new_buffer = std::max(buffer - download_s, 0.0) + chunk_len;
      new_buffer = std::min(new_buffer, capacity);
      const double change = std::abs(bitrate_mbps(b) - bitrate_mbps(last));
      const double r = bitrate_mbps(b) - 10.0 * rebuffer - change;
      self(self, depth + 1, new_buffer, b, reward + r);
    }
  };
  simulate(simulate, 0, start_buffer, last_bitrate, 0.0);
  return best_first;
}

// ---------------------------------------------------------------------------
// Oracle policies: RobustMPC's and Oboe's throughput predictions, verbatim,
// feeding the exhaustive enumerator.
// ---------------------------------------------------------------------------

class ExhaustiveRobustMpc {
 public:
  int act(const Observation& obs) {
    double inv_sum = 0.0;
    int count = 0;
    for (int i = AbrEnv::kThroughputHistory - 1; i >= 0 && count < 5; --i) {
      const double mbps =
          std::pow(10.0, obs[AbrEnv::kObsThroughputHist + i]) - 1.0;
      if (mbps > 1e-6) {
        inv_sum += 1.0 / mbps;
        ++count;
      }
    }
    const double harmonic = count > 0 ? count / inv_sum : 1.0;
    const double latest =
        std::pow(10.0, obs[AbrEnv::kObsThroughputHist +
                           AbrEnv::kThroughputHistory - 1]) -
        1.0;
    if (last_prediction_mbps_ > 1e-6 && latest > 1e-6) {
      const double err = std::abs(last_prediction_mbps_ - latest) / latest;
      max_error_ = std::max(max_error_ * 0.9, err);
    }
    const double robust = harmonic / (1.0 + max_error_);
    last_prediction_mbps_ = robust;
    return exhaustive_best_first_action(obs, std::max(robust, 1e-3), 5);
  }

 private:
  double last_prediction_mbps_ = 0.0;
  double max_error_ = 0.0;
};

int exhaustive_oboe_act(const Observation& obs) {
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
  if (count == 0) return 0;
  const double mean = sum / count;
  const double var = std::max(sq / count - mean * mean, 0.0);
  const double cv = std::sqrt(var) / std::max(mean, 1e-6);
  const double discounted = mean / (1.0 + 1.5 * cv);
  return exhaustive_best_first_action(obs, discounted, 5);
}

/// Throughput predictions to replan each observation under: the floor, the
/// link's recent throughput scaled down and up, and an oversized link.
std::vector<double> predictions_for(const Observation& obs) {
  const double latest =
      std::pow(10.0, obs[AbrEnv::kObsThroughputHist +
                         AbrEnv::kThroughputHistory - 1]) -
      1.0;
  return {0.0, latest * 0.5, latest, latest * 2.0, 1000.0};
}

/// Plays fixed-seed RL3 episodes with the planner-backed policies, checking
/// every decision against the oracle; returns the observations seen.
std::vector<Observation> check_rl3_episodes(int min_decisions) {
  const netgym::ConfigSpace space = abr::abr_config_space(3);
  Rng rng(20240817);
  std::vector<Observation> seen;
  for (int episode = 0; static_cast<int>(seen.size()) < min_decisions;
       ++episode) {
    const abr::AbrEnvConfig cfg = abr::abr_config_from_point(space.sample(rng));
    auto env = abr::make_abr_env(cfg, rng);
    // Alternate which policy drives the episode so both visit their own
    // states; both are checked against their oracles at every step.
    const bool oboe_drives = episode % 2 == 1;
    abr::RobustMpcPolicy mpc;
    abr::OboePolicy oboe;
    ExhaustiveRobustMpc mpc_oracle;
    mpc.begin_episode();
    Observation obs = env->reset();
    bool done = false;
    while (!done) {
      const int mpc_action = mpc.act(obs, rng);
      const int oboe_action = oboe.act(obs, rng);
      EXPECT_EQ(mpc_action, mpc_oracle.act(obs))
          << "RobustMPC, episode " << episode << " step " << seen.size();
      EXPECT_EQ(oboe_action, exhaustive_oboe_act(obs))
          << "Oboe, episode " << episode << " step " << seen.size();
      seen.push_back(obs);
      const auto step = env->step(oboe_drives ? oboe_action : mpc_action);
      obs = step.observation;
      done = step.done;
    }
  }
  return seen;
}

TEST(MpcPlanner, PoliciesMatchExhaustiveSearchOnRl3Episodes) {
  const std::vector<Observation> seen = check_rl3_episodes(10000);
  EXPECT_GE(seen.size(), 10000u);
}

TEST(MpcPlanner, MatchesExhaustiveSearchAtEveryHorizon) {
  // A sample of real RL3 observations, replanned under several predictions
  // at horizons 1..6.
  const std::vector<Observation> seen = check_rl3_episodes(2000);
  int checked = 0;
  for (std::size_t i = 0; i < seen.size(); i += 10) {
    const Observation& obs = seen[i];
    for (const double p : predictions_for(obs)) {
      for (int h = 1; h <= 6; ++h) {
        ASSERT_EQ(abr::mpc_best_first_action(obs, p, h),
                  exhaustive_best_first_action(obs, p, h))
            << "prediction " << p << " horizon " << h;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

/// A synthetic observation: nominal next-chunk sizes for the chunk length.
Observation edge_obs(double buffer_s, double capacity_s, double chunk_s,
                     int last_bitrate) {
  Observation obs(AbrEnv::kObsSize, 0.0);
  obs[AbrEnv::kObsLastBitrate] =
      static_cast<double>(last_bitrate) / (kBitrateCount - 1);
  obs[AbrEnv::kObsBuffer] = buffer_s / 30.0;
  obs[AbrEnv::kObsMaxBuffer] = capacity_s / 100.0;
  obs[AbrEnv::kObsChunkLength] = chunk_s / 10.0;
  obs[AbrEnv::kObsMinRtt] = 0.08;
  obs[AbrEnv::kObsRemaining] = 0.5;
  for (int b = 0; b < kBitrateCount; ++b) {
    obs[AbrEnv::kObsNextSizes + b] =
        abr::kBitratesKbps[b] * 1000.0 * chunk_s / 8e6;
  }
  return obs;
}

TEST(MpcPlanner, MatchesExhaustiveSearchOnEdgeCases) {
  // Empty buffer, capacity below the chunk length, the last bitrate at both
  // ends of the ladder, and the prediction at the 1e-3 floor (including
  // zero and negative inputs that the floor clamps) and at 1000 Mbps.
  int checked = 0;
  for (const double buffer : {0.0, 1.5, 30.0}) {
    for (const double capacity : {2.0, 60.0}) {
      for (const double chunk : {1.0, 4.0, 10.0}) {
        for (const int last : {0, 2, kBitrateCount - 1}) {
          const Observation obs = edge_obs(buffer, capacity, chunk, last);
          for (const double p : {-1.0, 0.0, 1e-3, 0.5, 2.0, 4.3, 1000.0}) {
            for (int h = 1; h <= 6; ++h) {
              ASSERT_EQ(abr::mpc_best_first_action(obs, p, h),
                        exhaustive_best_first_action(obs, p, h))
                  << "buffer " << buffer << " capacity " << capacity
                  << " chunk " << chunk << " last " << last
                  << " prediction " << p << " horizon " << h;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 3 * 2 * 3 * 3 * 7 * 6);
}

TEST(MpcPlanner, MatchesExhaustiveSearchOnDegenerateRewards) {
  // Every plan scoring below the search's initial best (huge next chunks on
  // a floored link): both fall back to action 0.
  Observation huge = edge_obs(0.0, 60.0, 4.0, kBitrateCount - 1);
  for (int b = 0; b < kBitrateCount; ++b) {
    huge[AbrEnv::kObsNextSizes + b] = 1e15;
  }
  // A NaN next-chunk size poisons every plan that starts with that bitrate;
  // NaN rewards are never chosen.
  Observation poisoned = edge_obs(10.0, 60.0, 4.0, 3);
  poisoned[AbrEnv::kObsNextSizes + kBitrateCount - 1] =
      std::numeric_limits<double>::quiet_NaN();
  Observation all_nan = poisoned;
  for (int b = 0; b < kBitrateCount; ++b) {
    all_nan[AbrEnv::kObsNextSizes + b] =
        std::numeric_limits<double>::quiet_NaN();
  }
  for (const Observation& obs : {huge, poisoned, all_nan}) {
    for (const double p : {0.0, 3.0, 1000.0}) {
      for (int h = 1; h <= 6; ++h) {
        EXPECT_EQ(abr::mpc_best_first_action(obs, p, h),
                  exhaustive_best_first_action(obs, p, h))
            << "prediction " << p << " horizon " << h;
      }
    }
  }
  EXPECT_EQ(abr::mpc_best_first_action(huge, 0.0, 5), 0);
}

TEST(MpcPlanner, RejectsLastBitrateOffTheLadder) {
  // Both searches index the ladder by the observed last bitrate.
  for (const double last : {-0.5, 1.5}) {
    Observation obs = edge_obs(10.0, 60.0, 4.0, 0);
    obs[AbrEnv::kObsLastBitrate] = last;
    EXPECT_THROW(abr::mpc_best_first_action(obs, 3.0, 5), std::out_of_range);
    EXPECT_THROW(exhaustive_best_first_action(obs, 3.0, 5), std::out_of_range);
  }
}

TEST(MpcPlanner, RejectsHorizonOutsideBounds) {
  const Observation obs = edge_obs(10.0, 60.0, 4.0, 0);
  EXPECT_THROW(abr::mpc_best_first_action(obs, 3.0, 0), std::invalid_argument);
  EXPECT_THROW(abr::mpc_best_first_action(obs, 3.0, abr::kMaxMpcHorizon + 1),
               std::invalid_argument);
  EXPECT_NO_THROW(abr::mpc_best_first_action(obs, 3.0, abr::kMaxMpcHorizon));
}

}  // namespace
