#pragma once

#include <memory>

#include "abr/env.hpp"
#include "netgym/env.hpp"

namespace abr {

/// Buffer-Based Adaptation (BBA [23]): maps the current playback-buffer
/// occupancy linearly onto the bitrate ladder between a reservoir and an
/// upper threshold, both derived from the player's buffer capacity (the BBA
/// paper's reservoir/cushion scheme). Deterministic and stateless.
class BbaPolicy : public netgym::Policy {
 public:
  int act(const netgym::Observation& obs, netgym::Rng& rng) override;
  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<BbaPolicy>(*this);
  }
};

/// Longest MPC lookahead the planner accepts. A decision's worst case visits
/// 6^horizon leaves, so the cap bounds the cost of a single decision.
inline constexpr int kMaxMpcHorizon = 8;

/// The MPC planning core shared by RobustMPC and Oboe: under a fixed
/// throughput prediction, returns the first bitrate of the sequence over the
/// next `horizon` chunks (1..kMaxMpcHorizon, else std::invalid_argument) with
/// the best predicted Table-1 reward; ties go to the sequence that is first
/// in lexicographic order.
///
/// The search is an exact branch-and-bound over the 6^horizon sequences. A
/// subtree is skipped when its reward so far plus the top rung's Mbps, added
/// once per remaining chunk in the order the leaf sums use, is not greater
/// than the best leaf found. That skip never changes the answer: each chunk's
/// reward `mbps - 10 * rebuffer - change` is at most `mbps`, since rebuffer
/// and change are non-negative; round-to-nearest addition is monotone, so no
/// skipped leaf could pass the strict `>` test, and a NaN reward is never
/// chosen either way. The result is bit-identical to full enumeration.
int mpc_best_first_action(const netgym::Observation& obs,
                          double predicted_throughput_mbps, int horizon);

/// RobustMPC [57]: model-predictive control over a short lookahead horizon.
/// Throughput is predicted as the harmonic mean of recent measurements,
/// discounted by the maximum recent prediction error (the "robust" part);
/// mpc_best_first_action then finds, by exact pruned search, the bitrate
/// sequence over the horizon with the best predicted Table-1 reward, and the
/// policy plays its first step.
class RobustMpcPolicy : public netgym::Policy {
 public:
  explicit RobustMpcPolicy(int horizon = 5);

  void begin_episode() override;
  int act(const netgym::Observation& obs, netgym::Rng& rng) override;
  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<RobustMpcPolicy>(*this);
  }

 private:
  double predict_throughput_mbps(const netgym::Observation& obs);

  int horizon_;
  double last_prediction_mbps_ = 0.0;
  double max_error_ = 0.0;
};

/// Oboe [5] (simplified): auto-tunes the MPC throughput discount from the
/// observed mean and variance of recent throughput, instead of RobustMPC's
/// online error tracking. The paper calls Oboe "a very competitive
/// baseline" (footnote 3) and plots it in Fig. 17.
class OboePolicy : public netgym::Policy {
 public:
  explicit OboePolicy(int horizon = 5);
  int act(const netgym::Observation& obs, netgym::Rng& rng) override;
  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<OboePolicy>(*this);
  }

 private:
  int horizon_;
};

/// The deliberately unreasonable ABR baseline of S5.4 ("choosing the highest
/// bitrate when rebuffer"): requests the top ladder rate whenever the buffer
/// is nearly empty and the bottom rate otherwise. Used to show what happens
/// when Genet is guided by a naive baseline.
class NaiveAbrPolicy : public netgym::Policy {
 public:
  int act(const netgym::Observation& obs, netgym::Rng& rng) override;
  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<NaiveAbrPolicy>(*this);
  }
};

/// Fixed-bitrate policy (useful reference and test fixture).
class ConstantBitratePolicy : public netgym::Policy {
 public:
  explicit ConstantBitratePolicy(int bitrate_index);
  int act(const netgym::Observation& obs, netgym::Rng& rng) override;
  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<ConstantBitratePolicy>(*this);
  }

 private:
  int bitrate_index_;
};

}  // namespace abr
