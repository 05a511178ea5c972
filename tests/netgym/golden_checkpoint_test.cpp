// Backward-compatibility pins: the reference checkpoints committed under
// tests/data/ were written by tools/make_golden_checkpoints.cpp at format
// version 1 and must keep loading -- with every bit intact -- in every
// future build. If one of these tests fails, the file format or a
// component's save_state schema changed incompatibly; the fix is a version
// bump with decode support for the old version, never regenerating the
// goldens to match new behavior. Constants here mirror the generator; keep
// them in sync.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "genet/adapter.hpp"
#include "genet/curriculum.hpp"
#include "netgym/checkpoint.hpp"
#include "netgym/config.hpp"
#include "netgym/health.hpp"
#include "netgym/parallel.hpp"
#include "netgym/rng.hpp"
#include "nn/mlp.hpp"
#include "rl/trainer.hpp"

namespace {

namespace ckpt = netgym::checkpoint;

std::string data_path(const std::string& name) {
  return std::string(GENET_TEST_DATA_DIR) + "/" + name;
}

const std::vector<double> kGoldenMlpParams = {
    0.0,  -0.0, 0.125,  -0.5,    1.5, -2.25,
    3.0,  0.75, -0.75,  std::numeric_limits<double>::denorm_min(),
    2.0,  -3.5, 4.25,   -5.125,  6.0, 0.0078125,
    -1.0};

TEST(GoldenCheckpoint, ReferenceSnapshotStillLoads) {
  const ckpt::Snapshot snap =
      ckpt::read_file(data_path("golden_snapshot_v1.ckpt"));
  EXPECT_EQ(snap.get_i64("counters/i"), -7);
  EXPECT_EQ(snap.get_u64("counters/u"), 18446744073709551615ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(snap.get_double("values/pi")),
            std::bit_cast<std::uint64_t>(3.141592653589793));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(snap.get_double("values/neg_zero")),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_TRUE(std::isnan(snap.get_double("values/nan")));
  EXPECT_EQ(snap.get_string("name"), std::string("golden\n\x01", 8));
  const std::vector<double>& weights = snap.get_doubles("weights");
  ASSERT_EQ(weights.size(), 4u);
  EXPECT_EQ(weights[0], 1.0);
  EXPECT_EQ(weights[1], -2.5);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(weights[3]),
            std::bit_cast<std::uint64_t>(
                std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(snap.get_i64s("steps"), (std::vector<std::int64_t>{-3, 0, 9}));
}

TEST(GoldenCheckpoint, ReferenceMlpLoadsWithExactParameterBits) {
  netgym::Rng rng(0);
  nn::Mlp mlp({2, 3, 2}, nn::Activation::kTanh, rng);
  mlp.load_state(ckpt::read_file(data_path("golden_mlp_v1.ckpt")), "mlp/");
  ASSERT_EQ(mlp.params().size(), kGoldenMlpParams.size());
  for (std::size_t i = 0; i < kGoldenMlpParams.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mlp.params()[i]),
              std::bit_cast<std::uint64_t>(kGoldenMlpParams[i]))
        << "param " << i;
  }
}

TEST(GoldenCheckpoint, ReferenceRngStateReplaysTheRecordedStream) {
  const ckpt::Snapshot snap = ckpt::read_file(data_path("golden_rng_v1.ckpt"));
  netgym::Rng rng(0);
  rng.set_state(snap.get_string("rng"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rng.engine()(), snap.get_u64("next" + std::to_string(i)))
        << "draw " << i;
  }
}

TEST(GoldenCheckpoint, ReferenceCurriculumCheckpointResumesAndFinishes) {
  genet::LbAdapter adapter(1);
  genet::SearchOptions search;
  search.bo_trials = 2;
  search.envs_per_eval = 2;
  genet::CurriculumOptions options;
  options.rounds = 2;
  options.iters_per_round = 1;
  options.seed = 11;
  genet::CurriculumTrainer trainer(
      adapter, std::make_unique<genet::GenetScheme>("llf", search), options);
  trainer.load_checkpoint(data_path("golden_curriculum_v1.ckpt"));
  EXPECT_EQ(trainer.rounds_completed(), 1);
  EXPECT_EQ(trainer.distribution().num_promoted(), 1u);
  // The resumed run must be able to finish its remaining round.
  const auto records = trainer.run();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].round, 1);
  EXPECT_EQ(trainer.rounds_completed(), 2);
}

/// Mean policy entropy of each of the PPO golden run's three iterations. The
/// statistic is not saved, so the checkpoint bytes cannot pin it.
const double kPpoGoldenEntropies[] = {0x1.153a95572f5d8p+1,
                                      0x1.1695707e57b49p+1,
                                      0x1.18826fb1e8bc3p+1};

/// The generator's PPO run (write_ppo_golden): a CcAdapter(1) trainer,
/// seed 31, three iterations, saved whole and encoded as file bytes. Every
/// batch spans at least two row blocks (about 1,040 rows), so the golden
/// covers the row-blocked forward, backward and per-row loss.
std::string train_ppo_golden_bytes() {
  genet::CcAdapter adapter(1);
  const netgym::ConfigDistribution dist(adapter.space());
  const rl::EnvFactory factory = adapter.factory_for(dist);
  const auto trainer = adapter.make_trainer(/*seed=*/31);
  for (int i = 0; i < 3; ++i) {
    const rl::IterationStats stats = trainer->train_iteration(factory);
    EXPECT_GE(stats.steps, static_cast<int>(2 * nn::kRowBlock));
    EXPECT_EQ(stats.mean_entropy, kPpoGoldenEntropies[i]) << "iteration " << i;
  }
  ckpt::Snapshot snap;
  trainer->save_state(snap, "trainer/");
  return ckpt::encode_file_bytes(snap);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Restores the default pool width and a disabled, wiped health watchdog on
/// scope exit, so a failing assertion cannot leak either into later tests.
struct PpoGoldenGuard {
  ~PpoGoldenGuard() {
    netgym::set_num_threads(0);
    netgym::health::Watchdog::instance().disable();
    netgym::health::Watchdog::instance().reset();
  }
};

TEST(GoldenCheckpoint, PpoTrainerRetrainsToReferenceBytes) {
  // CC trains with PPO, and this is the only tier-1 pin on its update's
  // bits: re-training must reproduce the committed snapshot byte for byte
  // at any pool width, and with the health watchdog on (its update-KL stat
  // reads the pre-update log-probs the update captures).
  std::ifstream in(data_path("golden_ppo_cc_v1.ckpt"), std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string expected((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  PpoGoldenGuard guard;
  for (int threads : {1, 4}) {
    netgym::set_num_threads(threads);
    const std::string got = train_ppo_golden_bytes();
    EXPECT_TRUE(got == expected)
        << threads << " threads: " << got.size() << " bytes vs "
        << expected.size();
  }
  netgym::health::Watchdog::instance().reset();
  netgym::health::Watchdog::instance().enable({});
  EXPECT_TRUE(train_ppo_golden_bytes() == expected) << "health watchdog on";
}

TEST(GoldenCheckpoint, A2cRowBlockedUpdateMatchesPinnedBits) {
  // The default trainer of ABR and LB is A2C, whose golden-sized batches
  // stay within one row block. Thirty-two ABR episodes give 580-670 rows,
  // so this run's update spans three blocks. The pins were written before
  // the update was row-blocked: the trainer's saved state (as an FNV-1a
  // hash of its file bytes) and each iteration's mean entropy.
  const double kEntropies[] = {0x1.a62717a870986p+0, 0x1.a99ad0ff16639p+0,
                               0x1.adf0fd50af302p+0};
  constexpr std::uint64_t kStateHash = 0x3ba52a15c23afd6dULL;
  PpoGoldenGuard guard;
  for (int threads : {1, 4}) {
    netgym::set_num_threads(threads);
    genet::AbrAdapter adapter(1);
    const netgym::ConfigDistribution dist(adapter.space());
    const rl::EnvFactory factory = adapter.factory_for(dist);
    rl::TrainerOptions options;
    options.episodes_per_iteration = 32;
    rl::A2CTrainer trainer(adapter.obs_size(), adapter.action_count(),
                           options, /*seed=*/31);
    for (int i = 0; i < 3; ++i) {
      const rl::IterationStats stats = trainer.train_iteration(factory);
      EXPECT_GE(stats.steps, static_cast<int>(2 * nn::kRowBlock));
      EXPECT_EQ(stats.mean_entropy, kEntropies[i])
          << threads << " threads, iteration " << i;
    }
    ckpt::Snapshot snap;
    trainer.save_state(snap, "trainer/");
    EXPECT_EQ(fnv1a(ckpt::encode_file_bytes(snap)), kStateHash)
        << threads << " threads";
  }
}

}  // namespace
