#include "rl/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "netgym/health.hpp"
#include "nn/mlp.hpp"

namespace {

using netgym::Env;
using netgym::Observation;
using netgym::Rng;

/// Contextual bandit: the observation one-hot-encodes which action pays 1.0
/// this step (others pay 0). Learnable by any policy-gradient method in a
/// few thousand steps; used to validate the full A2C/PPO update math.
class ContextualBanditEnv : public Env {
 public:
  static constexpr int kContexts = 3;
  static constexpr int kSteps = 20;

  explicit ContextualBanditEnv(std::uint64_t seed) : rng_(seed) {}

  Observation reset() override {
    remaining_ = kSteps;
    return draw();
  }

  StepResult step(int action) override {
    const double reward = action == correct_ ? 1.0 : 0.0;
    --remaining_;
    return {draw(), reward, remaining_ == 0};
  }

  int action_count() const override { return kContexts; }
  std::size_t observation_size() const override { return kContexts; }

 private:
  Observation draw() {
    correct_ = rng_.uniform_int(0, kContexts - 1);
    Observation obs(kContexts, 0.0);
    obs[static_cast<std::size_t>(correct_)] = 1.0;
    return obs;
  }

  Rng rng_;
  int correct_ = 0;
  int remaining_ = 0;
};

rl::EnvFactory bandit_factory() {
  return [](Rng& rng) -> std::unique_ptr<Env> {
    return std::make_unique<ContextualBanditEnv>(rng.engine()());
  };
}

double greedy_eval(rl::ActorCriticBase& trainer, int episodes) {
  trainer.policy().set_greedy(true);
  Rng rng(555);
  double total = 0.0;
  for (int e = 0; e < episodes; ++e) {
    ContextualBanditEnv env(rng.engine()());
    total += netgym::run_episode(env, trainer.policy(), rng).mean_reward;
  }
  trainer.policy().set_greedy(false);
  return total / episodes;
}

TEST(A2CTrainer, LearnsContextualBandit) {
  rl::TrainerOptions options;
  options.hidden = {16};
  options.episodes_per_iteration = 8;
  rl::A2CTrainer trainer(ContextualBanditEnv::kContexts,
                         ContextualBanditEnv::kContexts, options, 7);
  const double before = greedy_eval(trainer, 20);
  const rl::EnvFactory factory = bandit_factory();
  for (int i = 0; i < 120; ++i) trainer.train_iteration(factory);
  const double after = greedy_eval(trainer, 20);
  EXPECT_GT(after, 0.9) << "before training: " << before;
  EXPECT_GT(after, before);
}

TEST(PPOTrainer, LearnsContextualBandit) {
  rl::TrainerOptions options;
  options.hidden = {16};
  options.episodes_per_iteration = 8;
  rl::PPOTrainer trainer(ContextualBanditEnv::kContexts,
                         ContextualBanditEnv::kContexts, options, 7);
  const rl::EnvFactory factory = bandit_factory();
  for (int i = 0; i < 80; ++i) trainer.train_iteration(factory);
  EXPECT_GT(greedy_eval(trainer, 20), 0.9);
}

TEST(Trainers, IterationStatsAreConsistent) {
  rl::TrainerOptions options;
  options.episodes_per_iteration = 4;
  rl::A2CTrainer trainer(ContextualBanditEnv::kContexts,
                         ContextualBanditEnv::kContexts, options, 1);
  const rl::IterationStats stats =
      trainer.train_iteration(bandit_factory());
  EXPECT_EQ(stats.episodes, 4);
  EXPECT_EQ(stats.steps, 4 * ContextualBanditEnv::kSteps);
  EXPECT_GE(stats.mean_entropy, 0.0);
  EXPECT_LE(stats.mean_entropy, std::log(3.0) + 1e-9);
  // Random policy on a 3-armed bandit earns ~1/3 per step.
  EXPECT_NEAR(stats.mean_step_reward, 1.0 / 3.0, 0.25);
}

TEST(Trainers, SnapshotRestoreRoundTrips) {
  rl::TrainerOptions options;
  rl::PPOTrainer trainer(3, 3, options, 11);
  const std::vector<double> snap = trainer.snapshot();
  trainer.train_iteration(bandit_factory());
  EXPECT_NE(trainer.snapshot(), snap);  // training moved the parameters
  trainer.restore(snap);
  EXPECT_EQ(trainer.snapshot(), snap);
}

TEST(Trainers, DeterministicGivenSeed) {
  rl::TrainerOptions options;
  rl::A2CTrainer a(3, 3, options, 99);
  rl::A2CTrainer b(3, 3, options, 99);
  for (int i = 0; i < 5; ++i) {
    a.train_iteration(bandit_factory());
    b.train_iteration(bandit_factory());
  }
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(CollectBatch, RespectsEpisodeAndStepLimits) {
  Rng rng(1);
  rl::MlpPolicy policy(3, 3, {8}, rng);
  Rng collect_rng(2);
  const rl::RolloutBatch batch =
      rl::collect_batch(policy, bandit_factory(), collect_rng, 3,
                        /*max_steps_per_episode=*/5);
  EXPECT_EQ(batch.num_episodes(), 3);
  EXPECT_EQ(batch.size(), 15u);
  // Truncated episodes must still be marked done at their last step.
  EXPECT_TRUE(batch.transitions[4].done);
  EXPECT_THROW(
      rl::collect_batch(policy, bandit_factory(), collect_rng, 0, 5),
      std::invalid_argument);
}

/// Exposes the protected entropy-coefficient schedule for direct testing.
class ScheduleProbe : public rl::ActorCriticBase {
 public:
  using rl::ActorCriticBase::ActorCriticBase;
  using rl::ActorCriticBase::next_entropy_coef;

 protected:
  rl::IterationStats run_iteration(const rl::EnvFactory&) override {
    return {};
  }
};

TEST(EntropyOf, ZeroProbabilityEntriesContributeZeroNotNaN) {
  // lim p->0 of -p log p is 0; a degenerate one-hot distribution must read
  // as zero entropy, never NaN (log(0) would poison every later mean).
  EXPECT_DOUBLE_EQ(rl::entropy_of({1.0, 0.0, 0.0}), 0.0);
  const double h = rl::entropy_of({0.5, 0.5, 0.0});
  EXPECT_TRUE(std::isfinite(h));
  EXPECT_NEAR(h, std::log(2.0), 1e-12);
  // Probabilities below the 1e-12 guard also contribute exactly 0.
  EXPECT_DOUBLE_EQ(rl::entropy_of({1.0, 1e-15, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(rl::entropy_of({}), 0.0);
  // Uniform distribution is the maximum: log n.
  EXPECT_NEAR(rl::entropy_of({0.25, 0.25, 0.25, 0.25}), std::log(4.0), 1e-12);
}

TEST(PolicyRow, MatchesSeparateSoftmaxLogProbAndEntropyBitForBit) {
  // The trainers' fused row must give exactly the bits of the three
  // separate functions it replaced, including rows whose small
  // probabilities fall under the 1e-12 guard or underflow to 0.
  const std::vector<std::vector<double>> rows = {
      {0.3, -1.2, 2.5},
      {1e-3, 7.0, -4.0, 0.0, 2.25, -0.5, 3.0, 1.0, -2.0},
      {50.0, -10.0, 0.0},      // p ~ 1e-26 and 2e-22: under the guard
      {800.0, 0.0, -800.0},    // p underflows to exactly 0
      {-3.0, -3.0, -3.0, -3.0}};
  for (const std::vector<double>& logits : rows) {
    const int width = static_cast<int>(logits.size());
    for (int action = 0; action < width; ++action) {
      std::vector<double> p(logits.size());
      std::vector<double> log_p(logits.size());
      const rl::PolicyRow row =
          rl::policy_row(logits.data(), width, action, p.data(), log_p.data());
      std::vector<double> probs(logits.size());
      nn::softmax_row(logits.data(), width, probs.data());
      EXPECT_EQ(p, probs);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row.logp),
                std::bit_cast<std::uint64_t>(
                    nn::log_softmax_row_at(logits.data(), width, action)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row.entropy),
                std::bit_cast<std::uint64_t>(rl::entropy_of(probs)));
      for (int j = 0; j < width; ++j) {
        EXPECT_EQ(log_p[j], std::log(std::max(probs[j], 1e-12))) << j;
      }
    }
  }
}

TEST(EntropySchedule, LinearDecayHitsBothEndpointsAndClampsAtFinal) {
  rl::TrainerOptions options;
  options.entropy_coef = 0.5;
  options.entropy_coef_final = 0.03;
  options.entropy_decay_iters = 10;
  ScheduleProbe probe(3, 3, options, 1);
  EXPECT_DOUBLE_EQ(probe.next_entropy_coef(), 0.5);  // t = 0: initial value
  for (int t = 1; t < 10; ++t) {
    EXPECT_NEAR(probe.next_entropy_coef(),
                0.5 + (t / 10.0) * (0.03 - 0.5), 1e-12);
  }
  // t >= decay_iters: pinned at the final value forever (up to the rounding
  // of the lerp's last step -- progress clamps to exactly 1.0).
  EXPECT_NEAR(probe.next_entropy_coef(), 0.03, 1e-15);
  EXPECT_NEAR(probe.next_entropy_coef(), 0.03, 1e-15);
}

TEST(EntropySchedule, NonPositiveDecayItersPinsAtFinalImmediately) {
  rl::TrainerOptions options;
  options.entropy_coef = 0.5;
  options.entropy_coef_final = 0.07;
  options.entropy_decay_iters = 0;
  ScheduleProbe probe(3, 3, options, 1);
  EXPECT_DOUBLE_EQ(probe.next_entropy_coef(), 0.07);
  EXPECT_DOUBLE_EQ(probe.next_entropy_coef(), 0.07);
  options.entropy_decay_iters = -5;
  ScheduleProbe negative(3, 3, options, 1);
  EXPECT_DOUBLE_EQ(negative.next_entropy_coef(), 0.07);
}

TEST(Trainers, HealthStatsAreObservationalAndLeaveParamsIdentical) {
  namespace health = netgym::health;
  rl::TrainerOptions options;
  rl::A2CTrainer plain(3, 3, options, 42);
  rl::A2CTrainer monitored(3, 3, options, 42);
  for (int i = 0; i < 3; ++i) plain.train_iteration(bandit_factory());

  health::Watchdog::instance().enable({});
  rl::IterationStats last;
  for (int i = 0; i < 3; ++i) {
    last = monitored.train_iteration(bandit_factory());
  }
  health::Watchdog::instance().disable();
  health::Watchdog::instance().reset();

  ASSERT_TRUE(last.health.has_value());
  EXPECT_EQ(last.health->step, 2);
  EXPECT_EQ(last.health->mean_entropy, last.mean_entropy);
  EXPECT_EQ(last.health->mean_episode_reward, last.mean_episode_reward);
  EXPECT_GT(last.health->actor_grad_norm, 0.0);
  EXPECT_GT(last.health->critic_grad_norm, 0.0);
  EXPECT_LE(last.health->actor_grad_norm_clipped,
            last.health->actor_grad_norm + 1e-12);
  EXPECT_TRUE(std::isfinite(last.health->approx_kl));
  EXPECT_TRUE(std::isfinite(last.health->explained_variance));
  EXPECT_FALSE(last.health->non_finite);
  // The monitored run's parameters are bit-identical to the unmonitored
  // one's: the health layer is strictly observational.
  EXPECT_EQ(plain.snapshot(), monitored.snapshot());
}

TEST(Trainers, PpoHealthStatsComputedAndObservational) {
  namespace health = netgym::health;
  rl::TrainerOptions options;
  rl::PPOTrainer plain(3, 3, options, 7);
  rl::PPOTrainer monitored(3, 3, options, 7);
  for (int i = 0; i < 2; ++i) plain.train_iteration(bandit_factory());

  health::Watchdog::instance().enable({});
  rl::IterationStats last;
  for (int i = 0; i < 2; ++i) {
    last = monitored.train_iteration(bandit_factory());
  }
  health::Watchdog::instance().disable();
  health::Watchdog::instance().reset();

  ASSERT_TRUE(last.health.has_value());
  // PPO moves the policy, so the post-update KL against the pre-update
  // log-probs is (weakly) informative -- and must be finite.
  EXPECT_TRUE(std::isfinite(last.health->approx_kl));
  EXPECT_FALSE(last.health->non_finite);
  EXPECT_EQ(plain.snapshot(), monitored.snapshot());
}

}  // namespace

