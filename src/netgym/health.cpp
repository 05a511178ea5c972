#include "netgym/health.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "netgym/telemetry.hpp"

namespace netgym::health {

Watchdog& Watchdog::instance() {
  static Watchdog watchdog;
  return watchdog;
}

void Watchdog::enable(Options options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  enabled_ = true;
  // Test-only hook (pinned by the cli_health_fail_fast ctest): pretend every
  // observed update carried a NaN, without touching any training state, so
  // the alert path and the fail-fast abort can be exercised cheaply.
  const char* inject = std::getenv("GENET_HEALTH_INJECT_NAN");
  inject_non_finite_ = inject != nullptr && inject[0] != '\0';
}

void Watchdog::disable() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = false;
}

bool Watchdog::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

Options Watchdog::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

std::uint64_t Watchdog::checks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checks_;
}

std::uint64_t Watchdog::alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_;
}

void Watchdog::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  checks_ = 0;
  alerts_ = 0;
  below_entropy_floor_ = false;
  reward_stalled_ = false;
  has_best_reward_ = false;
  best_reward_ = 0.0;
  last_improvement_step_ = 0;
  grad_history_.clear();
  grad_history_sum_ = 0.0;
}

void Watchdog::emit_alert(const IterationHealth& h, const std::string& kind,
                          const std::string& message, double value,
                          double threshold) {
  // Called with mu_ held. The counter/log writes are the observational part;
  // nothing here reads back into training.
  ++alerts_;
  namespace tel = netgym::telemetry;
  tel::Registry::instance().counter("health.alerts").add();
  tel::Registry::instance().counter("health.alert." + kind).add();
  if (tel::logging_enabled()) {
    tel::log_event("alert", h.step,
                   {{"kind", kind},
                    {"message", message},
                    {"value", value},
                    {"threshold", threshold}});
  }
}

void Watchdog::observe(const IterationHealth& input) {
  namespace tel = netgym::telemetry;
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return;
  ++checks_;

  IterationHealth h = input;
  if (inject_non_finite_ && !h.non_finite) {
    h.non_finite = true;
    h.non_finite_what = "injected by GENET_HEALTH_INJECT_NAN (test hook)";
  }

  // Publish the raw statistics first, so even a fail-fast abort leaves the
  // evidence behind. Registry metrics are cached once per process.
  static tel::Histogram& actor_norms =
      tel::Registry::instance().histogram("rl.actor_grad_norm");
  static tel::Histogram& critic_norms =
      tel::Registry::instance().histogram("rl.critic_grad_norm");
  static tel::Histogram& kls =
      tel::Registry::instance().histogram("rl.approx_kl");
  static tel::Histogram& evs =
      tel::Registry::instance().histogram("rl.explained_variance");
  static tel::Gauge& entropy_gauge =
      tel::Registry::instance().gauge("health.mean_entropy");
  static tel::Gauge& best_reward_gauge =
      tel::Registry::instance().gauge("health.best_reward");
  static tel::Counter& check_counter =
      tel::Registry::instance().counter("health.checks");
  actor_norms.record(h.actor_grad_norm);
  critic_norms.record(h.critic_grad_norm);
  kls.record(h.approx_kl);
  evs.record(h.explained_variance);
  entropy_gauge.set(h.mean_entropy);
  check_counter.add();
  if (tel::logging_enabled()) {
    tel::log_event(
        "health", h.step,
        {{"mean_entropy", h.mean_entropy},
         {"mean_episode_reward", h.mean_episode_reward},
         {"actor_grad_norm", h.actor_grad_norm},
         {"actor_grad_norm_clipped", h.actor_grad_norm_clipped},
         {"critic_grad_norm", h.critic_grad_norm},
         {"critic_grad_norm_clipped", h.critic_grad_norm_clipped},
         {"approx_kl", h.approx_kl},
         {"explained_variance", h.explained_variance},
         {"non_finite", static_cast<std::int64_t>(h.non_finite ? 1 : 0)}});
  }

  // Rule 1: non-finite sentinels. Fatal under fail-fast -- a NaN in the
  // losses or parameters never recovers; every later update is garbage.
  if (h.non_finite) {
    tel::Registry::instance().counter("health.non_finite").add();
    emit_alert(h, "non_finite",
               "non-finite value detected: " + h.non_finite_what,
               std::numeric_limits<double>::quiet_NaN(), 0.0);
    if (options_.fail_fast) {
      throw HealthError("health watchdog: non-finite value at iteration " +
                        std::to_string(h.step) + " (" + h.non_finite_what +
                        "); aborting under fail-fast");
    }
  }

  // Rule 2: entropy collapse. Fires on the transition below the floor, once
  // per excursion.
  const bool below_floor = h.mean_entropy < options_.entropy_floor;
  if (below_floor && !below_entropy_floor_) {
    emit_alert(h, "entropy_collapse",
               "mean policy entropy fell below the floor", h.mean_entropy,
               options_.entropy_floor);
  }
  below_entropy_floor_ = below_floor;

  // Rule 3: reward stall. Tracks the best mean episode reward seen and fires
  // once when it has not improved for reward_stall_iters iterations.
  if (options_.reward_stall_iters > 0) {
    if (!has_best_reward_ || h.mean_episode_reward > best_reward_) {
      has_best_reward_ = true;
      best_reward_ = h.mean_episode_reward;
      last_improvement_step_ = h.step;
      reward_stalled_ = false;
      best_reward_gauge.set(best_reward_);
    } else if (!reward_stalled_ &&
               h.step - last_improvement_step_ >= options_.reward_stall_iters) {
      reward_stalled_ = true;
      emit_alert(h, "reward_stalled",
                 "best mean episode reward unimproved for " +
                     std::to_string(h.step - last_improvement_step_) +
                     " iterations",
                 h.mean_episode_reward, best_reward_);
    }
  }

  // Rule 4: gradient spike. Compares the pre-clip actor norm to its rolling
  // mean; the spike itself still enters the window (a run that jumps to a
  // new regime alerts once, not forever).
  if (options_.grad_spike_factor > 0 && options_.grad_window > 0 &&
      std::isfinite(h.actor_grad_norm)) {
    if (static_cast<int>(grad_history_.size()) >= options_.grad_window) {
      const double mean =
          grad_history_sum_ / static_cast<double>(grad_history_.size());
      if (mean > 0.0 &&
          h.actor_grad_norm > options_.grad_spike_factor * mean) {
        emit_alert(h, "grad_spike",
                   "actor gradient norm spiked above its rolling mean",
                   h.actor_grad_norm, options_.grad_spike_factor * mean);
      }
      grad_history_sum_ -= grad_history_.front();
      grad_history_.pop_front();
    }
    grad_history_.push_back(h.actor_grad_norm);
    grad_history_sum_ += h.actor_grad_norm;
  }
}

bool enabled() { return Watchdog::instance().enabled(); }

}  // namespace netgym::health
