#include "rl/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "netgym/health.hpp"
#include "netgym/parallel.hpp"
#include "netgym/telemetry.hpp"
#include "netgym/tracing.hpp"
#include "rl/lockstep.hpp"

namespace rl {

namespace {

/// Transitions' observations packed row-major into an `n x obs_size` matrix,
/// ready for the batched forward passes below.
std::vector<double> pack_observations(const RolloutBatch& batch,
                                      int obs_size) {
  std::vector<double> rows(batch.size() * static_cast<std::size_t>(obs_size));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const netgym::Observation& obs = batch.transitions[i].obs;
    std::copy(obs.begin(), obs.end(),
              rows.begin() + i * static_cast<std::size_t>(obs_size));
  }
  return rows;
}

std::vector<int> critic_sizes(int obs_size, const std::vector<int>& hidden) {
  std::vector<int> sizes;
  sizes.push_back(obs_size);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(1);
  return sizes;
}

bool all_finite(const std::vector<double>& xs) {
  for (double x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// 1 - Var(targets - values) / Var(targets); 0 when the target variance is
/// (numerically) zero, so a degenerate constant-return batch reads as "the
/// critic explains nothing" instead of dividing by zero.
double explained_variance_of(const std::vector<double>& targets,
                             const std::vector<double>& values) {
  if (targets.empty() || targets.size() != values.size()) return 0.0;
  const double n = static_cast<double>(targets.size());
  double mean = 0.0;
  for (double t : targets) mean += t;
  mean /= n;
  double var = 0.0, residual_var = 0.0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    var += (targets[i] - mean) * (targets[i] - mean);
    const double r = targets[i] - values[i];
    residual_var += r * r;
  }
  // Residual variance around zero (not its own mean): a critic with a
  // constant bias should not score as fully explanatory.
  if (var < 1e-12) return 0.0;
  return 1.0 - residual_var / var;
}

}  // namespace

double entropy_of(const std::vector<double>& probs) {
  double h = 0.0;
  for (double p : probs) {
    if (p > 1e-12) h -= p * std::log(p);
  }
  return h;
}

PolicyRow policy_row(const double* logits, int width, int action, double* p,
                     double* log_p) {
  const double mx = *std::max_element(logits, logits + width);
  double total = 0.0;
  for (int j = 0; j < width; ++j) {
    p[j] = std::exp(logits[j] - mx);
    total += p[j];
  }
  PolicyRow row{logits[action] - mx - std::log(total), 0.0};
  for (int j = 0; j < width; ++j) p[j] /= total;
  for (int j = 0; j < width; ++j) {
    log_p[j] = std::log(std::max(p[j], 1e-12));
    if (p[j] > 1e-12) row.entropy -= p[j] * log_p[j];
  }
  return row;
}

RolloutBatch collect_batch(MlpPolicy& policy, const EnvFactory& factory,
                           netgym::Rng& rng, int episodes,
                           int max_steps_per_episode) {
  if (episodes <= 0) {
    throw std::invalid_argument("collect_batch: episodes must be > 0");
  }
  // Determinism by construction: each episode gets its own RNG stream,
  // forked serially up front, so nothing an episode samples can depend on
  // scheduling. Episodes are grouped into lockstep jobs — one policy copy
  // per job, all of the job's still-running episodes advanced through a
  // single batched forward per tick — and each job's environments are
  // constructed in episode index order from the episodes' own streams.
  // Because every episode touches only its own stream and its own env, and
  // (in strict math mode) a batched forward is bit-identical per row to a
  // scalar one, the batch is bit-identical at any group size and therefore
  // at any thread count.
  std::vector<netgym::Rng> streams;
  streams.reserve(static_cast<std::size_t>(episodes));
  for (int e = 0; e < episodes; ++e) streams.push_back(rng.fork());

  const std::size_t n_episodes = static_cast<std::size_t>(episodes);
  const std::size_t group = lockstep_group_size(n_episodes);
  const std::size_t jobs = (n_episodes + group - 1) / group;
  std::vector<std::vector<Transition>> per_episode(n_episodes);
  netgym::parallel_for_each(jobs, [&](std::size_t g) {
    const std::size_t begin = g * group;
    const std::size_t end = std::min(begin + group, n_episodes);
    netgym::tracing::TraceSpan span("episode.block", "rl",
                                    static_cast<std::int64_t>(g));
    MlpPolicy local = policy;
    std::vector<std::unique_ptr<netgym::Env>> envs;
    std::vector<netgym::Env*> env_ptrs;
    std::vector<netgym::Rng*> rng_ptrs;
    envs.reserve(end - begin);
    env_ptrs.reserve(end - begin);
    rng_ptrs.reserve(end - begin);
    for (std::size_t e = begin; e < end; ++e) {
      envs.push_back(factory(streams[e]));
      env_ptrs.push_back(envs.back().get());
      rng_ptrs.push_back(&streams[e]);
    }
    std::vector<std::vector<Transition>> transitions;
    run_episodes_lockstep(local, env_ptrs, rng_ptrs, max_steps_per_episode,
                          &transitions);
    for (std::size_t j = 0; j < transitions.size(); ++j) {
      per_episode[begin + j] = std::move(transitions[j]);
    }
  });

  RolloutBatch batch;
  std::size_t total = 0;
  for (const auto& episode : per_episode) total += episode.size();
  batch.transitions.reserve(total);
  for (auto& episode : per_episode) {
    for (Transition& t : episode) batch.transitions.push_back(std::move(t));
  }
  return batch;
}

ActorCriticBase::ActorCriticBase(int obs_size, int action_count,
                                 TrainerOptions options, std::uint64_t seed)
    : options_(std::move(options)),
      rng_(seed),
      policy_(obs_size, action_count, options_.hidden, rng_),
      critic_(critic_sizes(obs_size, options_.hidden), nn::Activation::kTanh,
              rng_),
      actor_opt_(policy_.net().num_params(), {.lr = options_.actor_lr}),
      critic_opt_(critic_.num_params(), {.lr = options_.critic_lr}) {}

void ActorCriticBase::observe_returns(const std::vector<double>& returns) {
  for (double g : returns) return_norm_.update(g);
}

void ActorCriticBase::save_state(netgym::checkpoint::Snapshot& snap,
                                 const std::string& prefix) const {
  policy_.net().save_state(snap, prefix + "policy/");
  critic_.save_state(snap, prefix + "critic/");
  actor_opt_.save_state(snap, prefix + "actor_opt/");
  critic_opt_.save_state(snap, prefix + "critic_opt/");
  return_norm_.save_state(snap, prefix + "return_norm/");
  snap.put_string(prefix + "rng", rng_.state());
  snap.put_i64(prefix + "iterations_done",
               static_cast<std::int64_t>(iterations_done_));
  snap.put_i64(prefix + "iteration_count",
               static_cast<std::int64_t>(iteration_count_));
}

void ActorCriticBase::load_state(const netgym::checkpoint::Snapshot& snap,
                                 const std::string& prefix) {
  using netgym::checkpoint::CheckpointError;
  // Load into copies first: every sub-component validates and fills a
  // throwaway, so a defect anywhere (missing key, shape mismatch, malformed
  // RNG stream) throws before the commit block and the trainer is untouched.
  nn::Mlp policy_net = policy_.net();
  nn::Mlp critic = critic_;
  nn::Adam actor_opt = actor_opt_;
  nn::Adam critic_opt = critic_opt_;
  RunningNorm return_norm = return_norm_;
  netgym::Rng rng = rng_;

  policy_net.load_state(snap, prefix + "policy/");
  critic.load_state(snap, prefix + "critic/");
  actor_opt.load_state(snap, prefix + "actor_opt/");
  critic_opt.load_state(snap, prefix + "critic_opt/");
  return_norm.load_state(snap, prefix + "return_norm/");
  try {
    rng.set_state(snap.get_string(prefix + "rng"));
  } catch (const std::invalid_argument& e) {
    throw CheckpointError(std::string("ActorCriticBase::load_state: ") +
                          e.what() + " (" + prefix + "rng)");
  }
  const std::int64_t iterations_done = snap.get_i64(prefix + "iterations_done");
  const std::int64_t iteration_count = snap.get_i64(prefix + "iteration_count");
  if (iterations_done < 0 || iteration_count < 0) {
    throw CheckpointError(
        "ActorCriticBase::load_state: negative iteration counter (" + prefix +
        ")");
  }

  // Commit: nothing below throws.
  policy_.net() = std::move(policy_net);
  critic_ = std::move(critic);
  actor_opt_ = std::move(actor_opt);
  critic_opt_ = std::move(critic_opt);
  return_norm_ = return_norm;
  rng_ = rng;
  iterations_done_ = static_cast<long>(iterations_done);
  iteration_count_ = static_cast<long>(iteration_count);
}

double ActorCriticBase::critic_value(const netgym::Observation& obs) {
  return critic_.forward(obs)[0];
}

RolloutBatch ActorCriticBase::collect_timed(const EnvFactory& factory,
                                            IterationStats& stats) {
  netgym::tracing::TraceSpan span("rollout", "rl");
  const auto start = std::chrono::steady_clock::now();
  RolloutBatch batch =
      collect_batch(policy_, factory, rng_, options_.episodes_per_iteration,
                    options_.max_steps_per_episode);
  stats.rollout_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return batch;
}

void ActorCriticBase::record_episode_rewards(const RolloutBatch& batch) {
  namespace tel = netgym::telemetry;
  static tel::Histogram& rewards =
      tel::Registry::instance().histogram("rl.episode_reward");
  double total = 0.0;
  for (const Transition& t : batch.transitions) {
    total += t.reward;
    if (t.done) {  // collect_batch forces done on each episode's last step
      rewards.record(total);
      total = 0.0;
    }
  }
}

void ActorCriticBase::finish_health_stats(const RolloutBatch& batch,
                                          const std::vector<double>& old_logp,
                                          const std::vector<double>& targets,
                                          const std::vector<double>& values,
                                          IterationStats& stats) {
  if (!netgym::health::enabled() || old_logp.size() != batch.size() ||
      batch.empty()) {
    return;
  }
  UpdateHealth& h = stats.health;
  h.computed = true;
  h.actor_grad_norm = actor_opt_.last_grad_norm();
  h.actor_grad_norm_clipped = actor_opt_.last_clipped_grad_norm();
  h.critic_grad_norm = critic_opt_.last_grad_norm();
  h.critic_grad_norm_clipped = critic_opt_.last_clipped_grad_norm();
  h.explained_variance = explained_variance_of(targets, values);

  // Approximate update-KL: one post-update batched forward pass (reads
  // parameters, consumes no RNG; the forward cache it clobbers is rebuilt by
  // the next forward->backward pair anyway).
  const std::size_t n = batch.size();
  const int actions = policy_.action_count();
  const std::vector<double> obs_rows =
      pack_observations(batch, policy_.obs_size());
  const std::vector<double>& logit_rows =
      policy_.net().forward_batch(obs_rows.data(), n);
  double kl_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double new_logp = nn::log_softmax_row_at(
        logit_rows.data() + i * actions, actions, batch.transitions[i].action);
    kl_sum += old_logp[i] - new_logp;
  }
  h.approx_kl = kl_sum / static_cast<double>(n);

  // Non-finite sentinels: scalar loss ingredients first (cheap, most
  // diagnostic), then full parameter scans.
  if (!std::isfinite(stats.mean_entropy)) {
    h.non_finite = true;
    h.non_finite_what = "mean policy entropy";
  } else if (!std::isfinite(h.actor_grad_norm) ||
             !std::isfinite(h.critic_grad_norm)) {
    h.non_finite = true;
    h.non_finite_what = "gradient norm";
  } else if (!std::isfinite(h.approx_kl)) {
    h.non_finite = true;
    h.non_finite_what = "approximate update-KL";
  } else if (!std::isfinite(stats.mean_episode_reward)) {
    h.non_finite = true;
    h.non_finite_what = "mean episode reward";
  } else if (!all_finite(policy_.net().params())) {
    h.non_finite = true;
    h.non_finite_what = "actor parameters";
  } else if (!all_finite(critic_.params())) {
    h.non_finite = true;
    h.non_finite_what = "critic parameters";
  }
}

IterationStats ActorCriticBase::train_iteration(const EnvFactory& factory) {
  namespace tel = netgym::telemetry;
  IterationStats stats;
  const auto start = std::chrono::steady_clock::now();
  {
    netgym::tracing::TraceSpan span("iteration", "rl", iteration_count_);
    stats = run_iteration(factory);
  }
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stats.update_seconds = std::max(total - stats.rollout_seconds, 0.0);

  // Registry metrics are cached once: lookups lock the registry, updates are
  // single relaxed atomics.
  static tel::Counter& iterations =
      tel::Registry::instance().counter("rl.iterations");
  static tel::Counter& env_steps =
      tel::Registry::instance().counter("rl.env_steps");
  static tel::Histogram& rollout_hist =
      tel::Registry::instance().histogram("rl.rollout_seconds");
  static tel::Histogram& update_hist =
      tel::Registry::instance().histogram("rl.update_seconds");
  iterations.add();
  env_steps.add(stats.steps);
  rollout_hist.record(stats.rollout_seconds);
  update_hist.record(stats.update_seconds);

  if (tel::logging_enabled()) {
    tel::log_event(
        "iteration", iteration_count_,
        {{"mean_episode_reward", stats.mean_episode_reward},
         {"mean_step_reward", stats.mean_step_reward},
         {"mean_entropy", stats.mean_entropy},
         {"episodes", static_cast<std::int64_t>(stats.episodes)},
         {"steps", static_cast<std::int64_t>(stats.steps)},
         {"rollout_seconds", stats.rollout_seconds},
         {"update_seconds", stats.update_seconds}});
  }
  // Health watchdog: strictly observational rule evaluation on the stats the
  // update just produced. Runs after all stochastic work; under fail-fast a
  // non-finite sentinel throws HealthError out of this call.
  if (stats.health.computed) {
    netgym::health::IterationHealth h;
    h.step = iteration_count_;
    h.mean_entropy = stats.mean_entropy;
    h.mean_episode_reward = stats.mean_episode_reward;
    h.actor_grad_norm = stats.health.actor_grad_norm;
    h.actor_grad_norm_clipped = stats.health.actor_grad_norm_clipped;
    h.critic_grad_norm = stats.health.critic_grad_norm;
    h.critic_grad_norm_clipped = stats.health.critic_grad_norm_clipped;
    h.approx_kl = stats.health.approx_kl;
    h.explained_variance = stats.health.explained_variance;
    h.non_finite = stats.health.non_finite;
    h.non_finite_what = stats.health.non_finite_what;
    ++iteration_count_;
    netgym::health::Watchdog::instance().observe(h);
    return stats;
  }
  ++iteration_count_;
  return stats;
}

double ActorCriticBase::next_entropy_coef() {
  const long t = iterations_done_++;
  if (options_.entropy_decay_iters <= 0) return options_.entropy_coef_final;
  const double progress = std::min(
      static_cast<double>(t) / options_.entropy_decay_iters, 1.0);
  return options_.entropy_coef +
         progress * (options_.entropy_coef_final - options_.entropy_coef);
}

IterationStats A2CTrainer::run_iteration(const EnvFactory& factory) {
  IterationStats stats;
  RolloutBatch batch = collect_timed(factory, stats);
  stats.episodes = batch.num_episodes();
  stats.steps = static_cast<int>(batch.size());
  stats.mean_episode_reward = batch.mean_episode_reward();
  stats.mean_step_reward =
      batch.empty() ? 0.0 : batch.total_reward() / batch.size();
  if (batch.empty()) return stats;
  record_episode_rewards(batch);

  netgym::tracing::TraceSpan advantage_span("advantage", "rl");
  // Scale rewards by the running return magnitude so actor/critic step sizes
  // are task-independent, then recompute returns on the scaled rewards.
  std::vector<double> raw_returns = discounted_returns(batch, options_.gamma);
  observe_returns(raw_returns);
  const double scale = reward_scale();
  std::vector<double> returns(raw_returns.size());
  for (std::size_t i = 0; i < returns.size(); ++i) {
    returns[i] = raw_returns[i] / scale;
  }

  const std::size_t n = batch.size();
  const std::vector<double> obs_rows =
      pack_observations(batch, policy_.obs_size());

  // Critic values in one batched pass (row-identical to per-sample forwards
  // in strict mode). The forward cache this leaves behind is reused by the
  // critic update below.
  const std::vector<double>& value_rows = critic_.forward_batch(
      obs_rows.data(), n);
  std::vector<double> values(value_rows.begin(), value_rows.end());
  std::vector<double> adv(n);
  for (std::size_t i = 0; i < n; ++i) {
    adv[i] = returns[i] - values[i];
  }
  normalize(adv);
  advantage_span.end();

  netgym::tracing::TraceSpan update_span("update", "rl");
  const double inv_n = 1.0 / static_cast<double>(n);
  const double ent_coef = next_entropy_coef();
  double entropy_sum = 0.0;
  const int actions = policy_.action_count();

  // Pre-update log-probs for the update-KL health stat. The actor pass runs
  // before the optimizer step, so capturing them there is free; only
  // allocated when the watchdog wants them.
  std::vector<double> old_logp;
  const bool capture_health = netgym::health::enabled();
  if (capture_health) old_logp.resize(n);

  // Actor: dL/dz_j = [-A * (1[a=j] - p_j) + c * p_j (log p_j + H)] / N.
  // One batched forward for all logits, per-row grads assembled in sample
  // order, one batched backward; gradient accumulation order matches the
  // old per-sample forward/backward interleave exactly.
  policy_.net().zero_grad();
  const std::vector<double>& logit_rows =
      policy_.net().forward_batch(obs_rows.data(), n);
  std::vector<double> grad_rows(n * static_cast<std::size_t>(actions));
  std::vector<double> p(static_cast<std::size_t>(actions));
  std::vector<double> log_p(p.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Transition& t = batch.transitions[i];
    const PolicyRow row = policy_row(logit_rows.data() + i * actions, actions,
                                     t.action, p.data(), log_p.data());
    if (capture_health) old_logp[i] = row.logp;
    const double h = row.entropy;
    entropy_sum += h;
    double* grad = grad_rows.data() + i * actions;
    for (int j = 0; j < actions; ++j) {
      const double onehot = (j == t.action) ? 1.0 : 0.0;
      const double pg = -adv[i] * (onehot - p[j]);
      const double eg = ent_coef * p[j] * (log_p[j] + h);
      grad[j] = (pg + eg) * inv_n;
    }
  }
  policy_.net().backward_batch(grad_rows.data(), n);
  policy_.net().apply(actor_opt_);

  // Critic: MSE against scaled returns. The critic's parameters have not
  // changed since the value pass above, so its cached batched forward (and
  // `values`) are exactly what a fresh per-sample pass would recompute —
  // the old code's second critic forward sweep is folded away.
  critic_.zero_grad();
  std::vector<double> critic_grads(n);
  for (std::size_t i = 0; i < n; ++i) {
    critic_grads[i] = 2.0 * (values[i] - returns[i]) * inv_n;
  }
  critic_.backward_batch(critic_grads.data(), n);
  critic_.apply(critic_opt_);

  stats.mean_entropy = entropy_sum * inv_n;
  finish_health_stats(batch, old_logp, returns, values, stats);
  return stats;
}

IterationStats PPOTrainer::run_iteration(const EnvFactory& factory) {
  IterationStats stats;
  RolloutBatch batch = collect_timed(factory, stats);
  stats.episodes = batch.num_episodes();
  stats.steps = static_cast<int>(batch.size());
  stats.mean_episode_reward = batch.mean_episode_reward();
  stats.mean_step_reward =
      batch.empty() ? 0.0 : batch.total_reward() / batch.size();
  if (batch.empty()) return stats;
  record_episode_rewards(batch);

  netgym::tracing::TraceSpan advantage_span("advantage", "rl");
  std::vector<double> raw_returns = discounted_returns(batch, options_.gamma);
  observe_returns(raw_returns);
  const double scale = reward_scale();

  const std::size_t n = batch.size();
  const std::vector<double> obs_rows =
      pack_observations(batch, policy_.obs_size());

  // The critic does not move before epoch 0's critic step, so this pass is
  // also epoch 0's critic forward: that epoch backpropagates through its
  // cache and regresses `values` instead of running a second pass.
  const std::vector<double>& value_rows =
      critic_.forward_batch(obs_rows.data(), n);
  std::vector<double> values(value_rows.begin(), value_rows.end());
  std::vector<double> adv =
      gae_advantages(batch, values, options_.gamma, options_.gae_lambda,
                     /*last_value=*/0.0, scale);
  // Critic regression target: advantage + value (the lambda-return).
  std::vector<double> targets(n);
  for (std::size_t i = 0; i < n; ++i) {
    targets[i] = adv[i] + values[i];
  }
  normalize(adv);
  advantage_span.end();

  netgym::tracing::TraceSpan update_span("update", "rl");
  const int actions = policy_.action_count();
  const double inv_n = 1.0 / static_cast<double>(n);
  const double eps = options_.clip_epsilon;
  const double ent_coef = next_entropy_coef();
  double entropy_sum = 0.0;
  long entropy_count = 0;

  std::vector<double> old_logp(n);
  std::vector<double> grad_rows(n * static_cast<std::size_t>(actions));
  std::vector<double> p(static_cast<std::size_t>(actions));
  std::vector<double> log_p(p.size());
  std::vector<double> critic_grads(n);
  for (int epoch = 0; epoch < options_.ppo_epochs; ++epoch) {
    // Actor parameters change every epoch, so each epoch re-runs one batched
    // forward over the whole batch, assembles per-row surrogate gradients in
    // sample order, and backpropagates them in one batched pass.
    policy_.net().zero_grad();
    const std::vector<double>& logit_rows =
        policy_.net().forward_batch(obs_rows.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const Transition& t = batch.transitions[i];
      const PolicyRow row = policy_row(logit_rows.data() + i * actions,
                                       actions, t.action, p.data(),
                                       log_p.data());
      // Epoch 0 runs on the pre-update parameters, so its log-probs are the
      // old policy's, and its ratios are exactly exp(0) = 1.
      if (epoch == 0) old_logp[i] = row.logp;
      const double ratio = std::exp(row.logp - old_logp[i]);
      const double h = row.entropy;
      entropy_sum += h;
      ++entropy_count;
      // Clipped surrogate: gradient is zero when the clip is active and
      // moving further would only increase the clipped-away ratio.
      const bool clipped = (adv[i] > 0 && ratio > 1.0 + eps) ||
                           (adv[i] < 0 && ratio < 1.0 - eps);
      double* grad = grad_rows.data() + i * actions;
      for (int j = 0; j < actions; ++j) {
        const double onehot = (j == t.action) ? 1.0 : 0.0;
        double pg = 0.0;
        if (!clipped) pg = -adv[i] * ratio * (onehot - p[j]);
        const double eg = ent_coef * p[j] * (log_p[j] + h);
        grad[j] = (pg + eg) * inv_n;
      }
    }
    policy_.net().backward_batch(grad_rows.data(), n);
    policy_.net().apply(actor_opt_);

    // The critic also moves every epoch, so (unlike A2C's single update) its
    // values are recomputed after epoch 0 before regressing onto targets.
    critic_.zero_grad();
    const double* epoch_values =
        epoch == 0 ? values.data()
                   : critic_.forward_batch(obs_rows.data(), n).data();
    for (std::size_t i = 0; i < n; ++i) {
      critic_grads[i] = 2.0 * (epoch_values[i] - targets[i]) * inv_n;
    }
    critic_.backward_batch(critic_grads.data(), n);
    critic_.apply(critic_opt_);
  }

  stats.mean_entropy =
      entropy_count > 0 ? entropy_sum / static_cast<double>(entropy_count)
                        : 0.0;
  if (netgym::health::enabled()) {
    finish_health_stats(batch, old_logp, targets, values, stats);
  }
  return stats;
}

}  // namespace rl
