#pragma once

#include <string>
#include <vector>

#include "netgym/checkpoint.hpp"
#include "netgym/env.hpp"

namespace rl {

/// One environment step recorded during rollout collection.
struct Transition {
  netgym::Observation obs;
  int action = 0;
  double reward = 0.0;
  bool done = false;  ///< true if this step ended the episode
};

/// A batch of transitions from one or more episodes, in time order. Episode
/// boundaries are marked by `done` flags (return computation never leaks
/// credit across them).
struct RolloutBatch {
  std::vector<Transition> transitions;

  std::size_t size() const { return transitions.size(); }
  bool empty() const { return transitions.empty(); }
  void clear() { transitions.clear(); }

  double total_reward() const;
  /// Mean per-episode total reward (requires at least one `done`; a trailing
  /// unfinished episode counts as an episode).
  double mean_episode_reward() const;
  int num_episodes() const;
};

/// Discounted returns G_t = r_t + gamma * G_{t+1}, reset at episode ends.
std::vector<double> discounted_returns(const RolloutBatch& batch,
                                       double gamma);

/// Generalized Advantage Estimation over the batch. `values` must align with
/// the transitions; the value after a terminal step is treated as zero, and a
/// trailing unfinished episode bootstraps from `last_value`. Each reward is
/// divided by `reward_scale` first (the trainers' running return scale), so
/// callers need not copy the batch to rescale it.
std::vector<double> gae_advantages(const RolloutBatch& batch,
                                   const std::vector<double>& values,
                                   double gamma, double lambda,
                                   double last_value = 0.0,
                                   double reward_scale = 1.0);

/// In-place standardization to zero mean / unit variance (no-op for constant
/// or single-element input).
void normalize(std::vector<double>& xs);

/// Running mean/variance tracker (Welford); used to normalize returns so the
/// same trainer hyperparameters work across reward scales that differ by
/// orders of magnitude between the three use cases.
class RunningNorm : public netgym::checkpoint::Serializable {
 public:
  void update(double x);
  double normalize(double x) const;
  double mean() const { return mean_; }
  double stddev() const;
  long count() const { return count_; }

  /// Checkpoint hooks: the tracker is three numbers (count, mean, M2); both
  /// directions preserve the exact bit patterns so a resumed trainer scales
  /// rewards identically to an uninterrupted one.
  void save_state(netgym::checkpoint::Snapshot& snap,
                  const std::string& prefix) const override;
  void load_state(const netgym::checkpoint::Snapshot& snap,
                  const std::string& prefix) override;

 private:
  long count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace rl
