#pragma once

#include <deque>
#include <memory>

#include "cc/env.hpp"

namespace cc {

/// Discrete-event, per-packet congestion-control simulator.
///
/// The fluid `CcEnv` integrates the bottleneck queue in 10 ms slices; this
/// backend simulates every packet individually, which is what Aurora's
/// original simulator does: packets are emitted at the sender's pacing
/// rate, each one either suffers random loss, is dropped on queue overflow
/// (FIFO of `queue_packets`), or departs after queueing behind every
/// earlier packet at the link's time-varying service rate. Per-packet
/// latency is (departure - arrival) + propagation.
///
/// The RL interface is identical to `CcEnv` (same observation layout, same
/// `kRateFactors` actions, same Table-1 reward), so any policy -- learned
/// or rule-based -- runs unchanged on either backend. Tests cross-validate
/// the two backends against each other.
class PacketCcEnv : public netgym::Env {
 public:
  static constexpr int kObsSize = CcEnv::kObsSize;

  PacketCcEnv(CcEnvConfig config, netgym::Trace trace, std::uint64_t seed);

  netgym::Observation reset() override;
  StepResult step(int action) override;
  int action_count() const override { return kRateActionCount; }
  std::size_t observation_size() const override { return kObsSize; }

  const CcEnvConfig& config() const { return config_; }
  const netgym::Trace& trace() const { return trace_; }
  double clock_s() const { return clock_s_; }
  double rate_pkts_per_s() const { return rate_pkts_; }

  /// Same aggregate statistics as the fluid backend.
  const CcEnv::Totals& totals() const { return totals_; }

 private:
  struct MiStats {
    double sent = 0.0;
    double delivered = 0.0;
    double lost = 0.0;
    double avg_latency_s = 0.0;
    double duration_s = 0.0;
  };
  MiStats simulate_interval(double duration_s);
  void push_mi(const MiStats& stats);
  netgym::Observation make_observation() const;
  double current_rtt_s() const;

  CcEnvConfig config_;
  netgym::Trace trace_;
  netgym::Rng rng_;
  double clock_s_ = 0.0;
  double rate_pkts_ = 0.0;
  double next_send_s_ = 0.0;   ///< pacing: time of the next packet emission
  double last_depart_s_ = 0.0; ///< departure time of the newest queued packet
  std::deque<double> queue_departures_;  ///< departure times of queued pkts
  bool done_ = true;
  std::array<MiStats, CcEnv::kMiHistory> history_{};
  CcEnv::Totals totals_;
};

/// Factories mirroring `make_cc_env`.
std::unique_ptr<PacketCcEnv> make_packet_cc_env(const CcEnvConfig& config,
                                                netgym::Rng& rng);
std::unique_ptr<PacketCcEnv> make_packet_cc_env(const CcEnvConfig& config,
                                                const netgym::Trace& trace,
                                                netgym::Rng& rng);

}  // namespace cc
