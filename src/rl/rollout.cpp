#include "rl/rollout.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rl {

double RolloutBatch::total_reward() const {
  double sum = 0.0;
  for (const Transition& t : transitions) sum += t.reward;
  return sum;
}

int RolloutBatch::num_episodes() const {
  int n = 0;
  bool open = false;
  for (const Transition& t : transitions) {
    open = true;
    if (t.done) {
      ++n;
      open = false;
    }
  }
  if (open) ++n;
  return n;
}

double RolloutBatch::mean_episode_reward() const {
  const int n = num_episodes();
  return n > 0 ? total_reward() / n : 0.0;
}

std::vector<double> discounted_returns(const RolloutBatch& batch,
                                       double gamma) {
  if (gamma < 0.0 || gamma > 1.0) {
    throw std::invalid_argument("discounted_returns: gamma must be in [0,1]");
  }
  std::vector<double> returns(batch.size());
  double acc = 0.0;
  for (std::size_t i = batch.size(); i-- > 0;) {
    const Transition& t = batch.transitions[i];
    if (t.done) acc = 0.0;
    acc = t.reward + gamma * acc;
    returns[i] = acc;
  }
  return returns;
}

std::vector<double> gae_advantages(const RolloutBatch& batch,
                                   const std::vector<double>& values,
                                   double gamma, double lambda,
                                   double last_value, double reward_scale) {
  if (values.size() != batch.size()) {
    throw std::invalid_argument("gae_advantages: values size mismatch");
  }
  std::vector<double> adv(batch.size());
  double acc = 0.0;
  for (std::size_t i = batch.size(); i-- > 0;) {
    const Transition& t = batch.transitions[i];
    double next_value;
    if (t.done) {
      next_value = 0.0;
      acc = 0.0;  // do not leak advantage across episode boundaries
    } else if (i + 1 < batch.size()) {
      next_value = values[i + 1];
    } else {
      next_value = last_value;
    }
    const double delta =
        t.reward / reward_scale + gamma * next_value - values[i];
    acc = delta + gamma * lambda * acc;
    adv[i] = acc;
  }
  return adv;
}

void normalize(std::vector<double>& xs) {
  if (xs.size() < 2) return;
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  const double sd = std::sqrt(var);
  if (sd < 1e-12) return;
  for (double& x : xs) x = (x - mean) / sd;
}

void RunningNorm::update(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningNorm::stddev() const {
  if (count_ < 2) return 1.0;
  return std::sqrt(std::max(m2_ / static_cast<double>(count_ - 1), 1e-12));
}

double RunningNorm::normalize(double x) const {
  return (x - mean_) / stddev();
}

void RunningNorm::save_state(netgym::checkpoint::Snapshot& snap,
                             const std::string& prefix) const {
  snap.put_i64(prefix + "count", static_cast<std::int64_t>(count_));
  snap.put_double(prefix + "mean", mean_);
  snap.put_double(prefix + "m2", m2_);
}

void RunningNorm::load_state(const netgym::checkpoint::Snapshot& snap,
                             const std::string& prefix) {
  const std::int64_t count = snap.get_i64(prefix + "count");
  const double mean = snap.get_double(prefix + "mean");
  const double m2 = snap.get_double(prefix + "m2");
  if (count < 0) {
    throw netgym::checkpoint::CheckpointError(
        "RunningNorm::load_state: negative count (" + prefix + "count)");
  }
  count_ = static_cast<long>(count);
  mean_ = mean;
  m2_ = m2;
}

}  // namespace rl
