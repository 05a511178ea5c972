#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "netgym/env.hpp"
#include "netgym/health.hpp"
#include "nn/adam.hpp"
#include "rl/policy.hpp"
#include "rl/rollout.hpp"

namespace rl {

/// Produces a fresh training environment. Genet's task adapters build one of
/// these from a configuration distribution: each call samples a config and
/// instantiates a simulator for it (Appendix A.1's K x N env sampling).
using EnvFactory =
    std::function<std::unique_ptr<netgym::Env>(netgym::Rng& rng)>;

/// Hyperparameters shared by the A2C and PPO trainers. Per the paper (S4.1)
/// these stay fixed across all experiments; only the training environment
/// distribution changes.
struct TrainerOptions {
  std::vector<int> hidden{32, 32};
  double gamma = 0.95;
  double actor_lr = 1e-3;
  double critic_lr = 2e-3;
  /// Entropy-bonus weight decays linearly from `entropy_coef` to
  /// `entropy_coef_final` over `entropy_decay_iters` training iterations
  /// (the schedule Pensieve's A3C uses to avoid premature collapse into a
  /// constant policy).
  double entropy_coef = 0.5;
  double entropy_coef_final = 0.03;
  int entropy_decay_iters = 1500;
  int episodes_per_iteration = 8;
  int max_steps_per_episode = 400;
  // PPO-only knobs (ignored by A2C):
  double clip_epsilon = 0.2;
  int ppo_epochs = 4;
  double gae_lambda = 0.95;
};

/// Summary of one training iteration.
struct IterationStats {
  double mean_episode_reward = 0.0;
  double mean_step_reward = 0.0;
  double mean_entropy = 0.0;
  int episodes = 0;
  int steps = 0;
  double rollout_seconds = 0.0;  ///< wall clock spent collecting the batch
  double update_seconds = 0.0;   ///< wall clock spent in gradient updates
  /// Present only when the netgym::health watchdog is enabled: its
  /// statistics cost extra forward passes and parameter scans, none of which
  /// consumes RNG or mutates training state, so the trained parameters are
  /// bit-identical either way.
  std::optional<netgym::health::IterationHealth> health;
};

/// Shannon entropy of a probability vector in nats. Entries at (numerically)
/// zero probability contribute exactly 0, never NaN: lim p->0 of -p log p
/// is 0, and the 1e-12 guard keeps the log call off p = 0.
double entropy_of(const std::vector<double>& probs);

/// The per-row policy-loss terms both trainers need from one row of logits.
struct PolicyRow {
  double logp;     ///< log softmax(logits)[action]
  double entropy;  ///< entropy of the softmax, nats
};

/// One pass over a `width`-wide row of logits: softmax probabilities into
/// `p`, each probability's log clamped at 1e-12 (the entropy gradient's
/// term) into `log_p`, and the taken action's log-prob and the entropy
/// returned. Every output is bit-identical to nn::softmax_row,
/// nn::log_softmax_row_at and entropy_of called separately (same
/// expressions, same order), but the row's exps and logs run once each.
PolicyRow policy_row(const double* logits, int width, int action, double* p,
                     double* log_p);

/// Roll the (stochastic) policy through `episodes` fresh environments drawn
/// from `factory`, returning all transitions in time order.
RolloutBatch collect_batch(MlpPolicy& policy, const EnvFactory& factory,
                           netgym::Rng& rng, int episodes,
                           int max_steps_per_episode);

/// Common machinery of the actor-critic trainers: actor/critic networks,
/// their optimizers, and a running return scale that keeps gradients
/// comparable across the three tasks' very different reward magnitudes.
class ActorCriticBase : public netgym::checkpoint::Serializable {
 public:
  ActorCriticBase(int obs_size, int action_count, TrainerOptions options,
                  std::uint64_t seed);
  ~ActorCriticBase() override = default;

  /// Run one training iteration (collect + update) on envs from `factory`,
  /// then publish run telemetry: registry counters and histograms
  /// (`rl.iterations`, `rl.env_steps`, `rl.rollout_seconds`,
  /// `rl.update_seconds`) and an "iteration" event on
  /// the global RunLogger, if one is installed. Telemetry is observational
  /// only -- it consumes no RNG draws and runs after the update -- so the
  /// trained parameters are bit-identical with and without a sink.
  IterationStats train_iteration(const EnvFactory& factory);

  MlpPolicy& policy() { return policy_; }
  const MlpPolicy& policy() const { return policy_; }
  const TrainerOptions& options() const { return options_; }

  std::vector<double> snapshot() const { return policy_.snapshot(); }
  void restore(const std::vector<double>& params) { policy_.restore(params); }

  /// Total train_iteration calls so far (survives checkpoint/resume; used by
  /// resuming callers to know how many iterations remain).
  long iterations() const { return iteration_count_; }

  /// Checkpoint hooks covering *all* trainer state: actor and critic
  /// networks, both Adam optimizers, the return normalizer, the entropy and
  /// telemetry iteration clocks, and the RNG stream. load_state validates
  /// every shape against this trainer's configuration up front, so a
  /// mismatched or corrupted snapshot throws CheckpointError without
  /// mutating anything.
  void save_state(netgym::checkpoint::Snapshot& snap,
                  const std::string& prefix) const override;
  void load_state(const netgym::checkpoint::Snapshot& snap,
                  const std::string& prefix) override;

 protected:
  /// Algorithm-specific collect + update step; implementations fill the
  /// reward/entropy/size fields of the returned stats and time the rollout
  /// phase via `collect_timed`. `train_iteration` wraps this with telemetry.
  virtual IterationStats run_iteration(const EnvFactory& factory) = 0;

  /// `collect_batch` plus wall-clock accounting into `stats.rollout_seconds`.
  RolloutBatch collect_timed(const EnvFactory& factory, IterationStats& stats);

  /// Feed each episode's total reward into the `rl.episode_reward` histogram
  /// (implementations call this right after collecting a batch).
  void record_episode_rewards(const RolloutBatch& batch);

  /// Fill `stats.health` from the just-finished update: the iteration index,
  /// entropy and episode reward already in `stats`, gradient norms read
  /// off both optimizers, approximate update-KL of the post-update policy
  /// against the pre-update log-probs in `old_logp`, explained variance of
  /// `values` against the regression `targets`, and non-finite sentinels
  /// over the losses and all parameters. No-op unless the health watchdog is
  /// enabled and `old_logp` was captured (implementations gate that capture
  /// on netgym::health::enabled()). Consumes no RNG and mutates nothing but
  /// `stats` and the policy net's transient forward cache.
  void finish_health_stats(const RolloutBatch& batch,
                           const std::vector<double>& old_logp,
                           const std::vector<double>& targets,
                           const std::vector<double>& values,
                           IterationStats& stats);

  /// Scale factor applied to rewards before returns/advantages: the running
  /// standard deviation of observed episode-discounted returns.
  double reward_scale() const { return return_norm_.stddev(); }
  void observe_returns(const std::vector<double>& returns);

  /// Current entropy-bonus weight under the linear decay schedule; also
  /// advances the iteration counter (call once per train_iteration).
  double next_entropy_coef();

  double critic_value(const netgym::Observation& obs);

  TrainerOptions options_;
  netgym::Rng rng_;
  MlpPolicy policy_;
  nn::Mlp critic_;
  nn::Adam actor_opt_;
  nn::Adam critic_opt_;
  RunningNorm return_norm_;
  long iterations_done_ = 0;    ///< entropy-decay clock (non-empty batches)
  long iteration_count_ = 0;    ///< train_iteration calls (telemetry step)
};

/// Advantage actor-critic (the paper's Pensieve/Park codebases use A3C; A2C
/// is its synchronous, single-worker equivalent).
class A2CTrainer : public ActorCriticBase {
 public:
  using ActorCriticBase::ActorCriticBase;

 protected:
  IterationStats run_iteration(const EnvFactory& factory) override;
};

/// Proximal Policy Optimization with clipped surrogate objective and GAE
/// (the algorithm used by the paper's Aurora CC codebase).
class PPOTrainer : public ActorCriticBase {
 public:
  using ActorCriticBase::ActorCriticBase;

 protected:
  IterationStats run_iteration(const EnvFactory& factory) override;
};

}  // namespace rl
