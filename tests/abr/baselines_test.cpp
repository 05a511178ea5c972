#include "abr/baselines.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "abr/env.hpp"

namespace {

using abr::AbrEnv;
using abr::AbrEnvConfig;
using netgym::Observation;
using netgym::Rng;
using netgym::Trace;

Trace constant_trace(double mbps, double duration_s) {
  Trace t;
  for (double s = 0.0; s <= duration_s; s += 1.0) {
    t.timestamps_s.push_back(s + 1e-4);
    t.bandwidth_mbps.push_back(mbps);
  }
  return t;
}

/// Observation with a given buffer level and max-buffer capacity, other
/// fields at plausible defaults.
Observation obs_with_buffer(double buffer_s, double capacity_s,
                            double throughput_mbps = 3.0) {
  Observation obs(AbrEnv::kObsSize, 0.0);
  obs[AbrEnv::kObsBuffer] = buffer_s / 30.0;
  obs[AbrEnv::kObsMaxBuffer] = capacity_s / 100.0;
  obs[AbrEnv::kObsChunkLength] = 0.4;
  obs[AbrEnv::kObsMinRtt] = 0.08;
  obs[AbrEnv::kObsRemaining] = 0.5;
  for (int i = 0; i < AbrEnv::kThroughputHistory; ++i) {
    obs[AbrEnv::kObsThroughputHist + i] = std::log10(1.0 + throughput_mbps);
  }
  for (int b = 0; b < abr::kBitrateCount; ++b) {
    obs[AbrEnv::kObsNextSizes + b] =
        abr::kBitratesKbps[b] * 1000.0 * 4.0 / 8e6;
  }
  return obs;
}

TEST(Bba, LowBufferPicksLowestBitrate) {
  abr::BbaPolicy bba;
  Rng rng(1);
  EXPECT_EQ(bba.act(obs_with_buffer(0.5, 60.0), rng), 0);
}

TEST(Bba, HighBufferPicksHighestBitrate) {
  abr::BbaPolicy bba;
  Rng rng(1);
  EXPECT_EQ(bba.act(obs_with_buffer(58.0, 60.0), rng),
            abr::kBitrateCount - 1);
}

TEST(Bba, BitrateIsMonotoneInBuffer) {
  abr::BbaPolicy bba;
  Rng rng(1);
  int last = 0;
  for (double buf = 0.0; buf <= 60.0; buf += 2.0) {
    const int choice = bba.act(obs_with_buffer(buf, 60.0), rng);
    EXPECT_GE(choice, last);
    last = choice;
  }
  EXPECT_EQ(last, abr::kBitrateCount - 1);
}

TEST(Bba, TinyCapacityStaysConservative) {
  abr::BbaPolicy bba;
  Rng rng(1);
  // 2 s capacity: reservoir >= 1 s, so a sub-second buffer means lowest.
  EXPECT_EQ(bba.act(obs_with_buffer(0.5, 2.0), rng), 0);
}

TEST(Mpc, StarvedThroughputPicksLowest) {
  abr::RobustMpcPolicy mpc;
  mpc.begin_episode();
  Rng rng(1);
  EXPECT_EQ(mpc.act(obs_with_buffer(4.0, 60.0, 0.2), rng), 0);
}

TEST(Mpc, AbundantThroughputPicksHighest) {
  abr::RobustMpcPolicy mpc;
  mpc.begin_episode();
  Rng rng(1);
  EXPECT_EQ(mpc.act(obs_with_buffer(20.0, 60.0, 50.0), rng),
            abr::kBitrateCount - 1);
}

TEST(Mpc, ValidatesHorizon) {
  EXPECT_THROW(abr::RobustMpcPolicy(0), std::invalid_argument);
  EXPECT_THROW(abr::RobustMpcPolicy(abr::kMaxMpcHorizon + 1),
               std::invalid_argument);
  EXPECT_NO_THROW(abr::RobustMpcPolicy(abr::kMaxMpcHorizon));
}

TEST(Mpc, BeatsConstantLowestOnGoodLink) {
  AbrEnvConfig cfg;
  cfg.video_length_s = 80.0;
  AbrEnv env_mpc(cfg, constant_trace(6.0, 400.0), 3);
  AbrEnv env_low(cfg, constant_trace(6.0, 400.0), 3);
  abr::RobustMpcPolicy mpc;
  abr::ConstantBitratePolicy lowest(0);
  Rng rng(1);
  const double r_mpc = netgym::run_episode(env_mpc, mpc, rng).mean_reward;
  const double r_low = netgym::run_episode(env_low, lowest, rng).mean_reward;
  EXPECT_GT(r_mpc, r_low);
}

TEST(Mpc, AvoidsRebufferOnSlowLink) {
  // On a 1 Mbps link MPC should hold a low bitrate and avoid the huge
  // rebuffering penalty that the constant-high policy incurs.
  AbrEnvConfig cfg;
  cfg.video_length_s = 80.0;
  AbrEnv env_mpc(cfg, constant_trace(1.0, 800.0), 3);
  AbrEnv env_high(cfg, constant_trace(1.0, 800.0), 3);
  abr::RobustMpcPolicy mpc;
  abr::ConstantBitratePolicy highest(abr::kBitrateCount - 1);
  Rng rng(1);
  const double r_mpc = netgym::run_episode(env_mpc, mpc, rng).mean_reward;
  const double r_high =
      netgym::run_episode(env_high, highest, rng).mean_reward;
  EXPECT_GT(r_mpc, 0.0);
  EXPECT_LT(r_high, 0.0);
}

TEST(Oboe, ValidatesHorizon) {
  EXPECT_THROW(abr::OboePolicy(0), std::invalid_argument);
  EXPECT_THROW(abr::OboePolicy(abr::kMaxMpcHorizon + 1),
               std::invalid_argument);
  EXPECT_NO_THROW(abr::OboePolicy(abr::kMaxMpcHorizon));
}

TEST(Oboe, ConservativeWithoutSignalAndScalesWithThroughput) {
  abr::OboePolicy oboe;
  Rng rng(1);
  // No throughput history at all -> lowest bitrate.
  Observation cold = obs_with_buffer(10.0, 60.0, 0.0);
  for (int i = 0; i < AbrEnv::kThroughputHistory; ++i) {
    cold[AbrEnv::kObsThroughputHist + i] = 0.0;
  }
  EXPECT_EQ(oboe.act(cold, rng), 0);
  // Abundant stable throughput -> highest bitrate.
  EXPECT_EQ(oboe.act(obs_with_buffer(20.0, 60.0, 50.0), rng),
            abr::kBitrateCount - 1);
}

TEST(Oboe, VarianceMakesItMoreConservativeThanStableHistory) {
  // Same mean throughput, but a wildly varying history must not pick a
  // higher bitrate than a stable one.
  abr::OboePolicy oboe;
  Rng rng(1);
  Observation stable = obs_with_buffer(12.0, 60.0, 3.0);
  Observation wild = obs_with_buffer(12.0, 60.0, 3.0);
  for (int i = 0; i < AbrEnv::kThroughputHistory; ++i) {
    const double mbps = (i % 2 == 0) ? 0.5 : 5.5;  // mean 3.0, high variance
    wild[AbrEnv::kObsThroughputHist + i] = std::log10(1.0 + mbps);
  }
  EXPECT_LE(oboe.act(wild, rng), oboe.act(stable, rng));
}

TEST(NaiveAbr, InvertedBufferLogic) {
  abr::NaiveAbrPolicy naive;
  Rng rng(1);
  // Nearly empty buffer -> highest bitrate (the unreasonable move).
  EXPECT_EQ(naive.act(obs_with_buffer(0.2, 60.0), rng),
            abr::kBitrateCount - 1);
  EXPECT_EQ(naive.act(obs_with_buffer(30.0, 60.0), rng), 0);
}

TEST(ConstantBitrate, ReturnsFixedIndexAndValidates) {
  abr::ConstantBitratePolicy policy(3);
  Rng rng(1);
  EXPECT_EQ(policy.act(obs_with_buffer(5.0, 60.0), rng), 3);
  EXPECT_THROW(abr::ConstantBitratePolicy(-1), std::invalid_argument);
  EXPECT_THROW(abr::ConstantBitratePolicy(abr::kBitrateCount),
               std::invalid_argument);
}

}  // namespace
