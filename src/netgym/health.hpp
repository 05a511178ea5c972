#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>

namespace netgym::health {

// Training-health watchdog: the semantic layer on top of the telemetry
// registry and JSONL RunLogger. The tracing/histogram layers record *where
// time goes*; this module records *whether learning is working*: per-update
// gradient norms, approximate update-KL, value-function explained variance,
// and NaN/Inf sentinels, evaluated against a small rule set (entropy floor,
// reward stall, gradient spike, non-finite anywhere). Rule violations become
// structured `alert` JSONL records; with fail-fast enabled a non-finite
// sentinel aborts the run (HealthError) instead of training on garbage.
//
// Determinism contract (DESIGN.md S5e): the watchdog is strictly
// observational. It never draws from an netgym::Rng, is only fed from serial
// trainer sections after the gradient update, and the extra statistics the
// trainer computes for it (forward passes for the update-KL, parameter
// scans for the sentinels) read but never write training state -- so
// enabling health monitoring leaves trained parameters bit-identical to a
// run with it disabled, at any thread count (pinned in
// parallel_determinism_test).

/// Thresholds of the watchdog rules. Defaults are loose on purpose: they are
/// meant to catch divergence (entropy collapse, exploding gradients, NaN),
/// not to grade a healthy run.
struct Options {
  /// Alert when the mean policy entropy drops below this floor (a policy
  /// frozen into near-deterministic actions long before the entropy-bonus
  /// schedule ends has usually collapsed).
  double entropy_floor = 0.01;
  /// Alert when the best mean episode reward has not improved for this many
  /// iterations (0 disables the rule).
  int reward_stall_iters = 200;
  /// Alert when the pre-clip actor gradient norm exceeds this multiple of
  /// its rolling mean (0 disables the rule).
  double grad_spike_factor = 10.0;
  /// Window of the rolling gradient-norm mean backing the spike rule.
  int grad_window = 50;
  /// Abort the run (throw HealthError) on any non-finite sentinel instead of
  /// continuing to train on garbage.
  bool fail_fast = false;
};

/// Per-update health statistics, computed by rl::ActorCriticBase only while
/// the watchdog is enabled (they cost extra forward passes and parameter
/// scans -- none of which consume RNG or mutate training state).
struct IterationHealth {
  std::int64_t step = 0;            ///< train_iteration index
  double mean_entropy = 0.0;        ///< mean policy entropy over the batch
  double mean_episode_reward = 0.0;
  double actor_grad_norm = 0.0;          ///< pre-clip L2 norm
  double actor_grad_norm_clipped = 0.0;  ///< after Adam's max-norm rescale
  double critic_grad_norm = 0.0;
  double critic_grad_norm_clipped = 0.0;
  /// Approximate KL(old || new) on the batch: mean over taken actions of
  /// log p_old(a|s) - log p_new(a|s), old = pre-update parameters.
  double approx_kl = 0.0;
  /// 1 - Var(returns - values) / Var(returns); near 1 when the critic
  /// explains the return signal, near 0 (or negative) when it does not.
  double explained_variance = 0.0;
  bool non_finite = false;          ///< any NaN/Inf in losses/grads/params
  std::string non_finite_what;      ///< which sentinel fired
};

/// Thrown by the watchdog under fail-fast when a non-finite sentinel fires.
class HealthError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Process-wide health watchdog. `observe` evaluates the rules on one
/// iteration's statistics, publishes them to the telemetry Registry
/// (histograms + gauges) and the JSONL stream (one `health` record per
/// update, one `alert` record per rule violation), and throws HealthError
/// under fail-fast on non-finite input. Call `observe` from serial sections
/// only (it is mutex-guarded, but the determinism contract assumes the
/// trainer's post-update position).
class Watchdog {
 public:
  static Watchdog& instance();

  void enable(Options options = {});
  void disable();
  bool enabled() const;
  Options options() const;

  /// Evaluate rules on one update's statistics; no-op while disabled.
  void observe(const IterationHealth& h);

  std::uint64_t checks() const;  ///< observe calls since enable/reset
  std::uint64_t alerts() const;  ///< rule violations since enable/reset

  /// Clear rule state and counters (the options stay).
  void reset();

 private:
  Watchdog() = default;

  void emit_alert(const IterationHealth& h, const std::string& kind,
                  const std::string& message, double value, double threshold);

  mutable std::mutex mu_;
  bool enabled_ = false;
  bool inject_non_finite_ = false;  // GENET_HEALTH_INJECT_NAN test hook
  Options options_;
  std::uint64_t checks_ = 0;
  std::uint64_t alerts_ = 0;
  // Rule state: alerts fire on the *transition* into a bad regime, not on
  // every iteration spent there, so a long collapse is one record.
  bool below_entropy_floor_ = false;
  bool reward_stalled_ = false;
  bool has_best_reward_ = false;
  double best_reward_ = 0.0;
  std::int64_t last_improvement_step_ = 0;
  std::deque<double> grad_history_;
  double grad_history_sum_ = 0.0;
};

/// True when the process-wide watchdog is enabled (lets trainers skip the
/// extra health statistics entirely when nobody is watching).
bool enabled();

}  // namespace netgym::health
