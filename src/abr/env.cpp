#include "abr/env.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netgym/telemetry.hpp"

namespace abr {

namespace {
// Bandwidth below this is treated as this value to keep downloads finite.
constexpr double kMinEffectiveBwMbps = 0.01;
// Honest players keep downloading during rebuffering, but a pathological
// chunk (huge size over near-zero bandwidth) must not stall an episode;
// cap a single download at this many seconds.
constexpr double kMaxDownloadS = 300.0;
}  // namespace

netgym::ConfigSpace abr_config_space(int which) {
  using P = netgym::ParamSpec;
  switch (which) {
    case 1:  // RL1 (Table 3)
      return netgym::ConfigSpace({P{"max_buffer_s", 2, 10},
                                  P{"chunk_length_s", 1, 4},
                                  P{"min_rtt_ms", 20, 30, false, true},
                                  P{"video_length_s", 40, 45},
                                  P{"bw_change_interval_s", 2, 2, false, true},
                                  P{"max_bw_mbps", 2, 5, false, true}});
    case 2:  // RL2
      return netgym::ConfigSpace({P{"max_buffer_s", 2, 50},
                                  P{"chunk_length_s", 1, 6},
                                  P{"min_rtt_ms", 20, 220, false, true},
                                  P{"video_length_s", 40, 200},
                                  P{"bw_change_interval_s", 2, 20, false, true},
                                  P{"max_bw_mbps", 2, 100, false, true}});
    case 3:  // RL3 (full ranges)
      return netgym::ConfigSpace({P{"max_buffer_s", 2, 100},
                                  P{"chunk_length_s", 1, 10},
                                  P{"min_rtt_ms", 20, 1000, false, true},
                                  P{"video_length_s", 40, 400},
                                  P{"bw_change_interval_s", 2, 100, false, true},
                                  P{"max_bw_mbps", 2, 1000, false, true}});
    default:
      throw std::invalid_argument("abr_config_space: which must be 1..3");
  }
}

AbrEnvConfig abr_config_from_point(const netgym::Config& point) {
  if (point.values.size() != 6) {
    throw std::invalid_argument("abr_config_from_point: expected 6 values");
  }
  AbrEnvConfig cfg;
  cfg.max_buffer_s = point.values[0];
  cfg.chunk_length_s = point.values[1];
  cfg.min_rtt_ms = point.values[2];
  cfg.video_length_s = point.values[3];
  cfg.bw_change_interval_s = point.values[4];
  cfg.max_bw_mbps = point.values[5];
  return cfg;
}

netgym::Config abr_point_from_config(const AbrEnvConfig& cfg) {
  return netgym::Config{{cfg.max_buffer_s, cfg.chunk_length_s, cfg.min_rtt_ms,
                         cfg.video_length_s, cfg.bw_change_interval_s,
                         cfg.max_bw_mbps}};
}

AbrEnv::AbrEnv(AbrEnvConfig config, netgym::Trace trace, std::uint64_t seed)
    : config_(config),
      trace_(std::move(trace)),
      video_(config.video_length_s, config.chunk_length_s, seed) {
  trace_.validate();
  if (trace_.empty() || trace_.duration_s() <= 0) {
    throw std::invalid_argument("AbrEnv: trace must cover a positive span");
  }
  if (config_.max_buffer_s <= 0 || config_.min_rtt_ms < 0) {
    throw std::invalid_argument("AbrEnv: invalid config");
  }
}

double AbrEnv::download_time_s(double bits, double start_s) const {
  if (bits <= 0) throw std::invalid_argument("download_time_s: bits <= 0");
  netgym::Trace::Cursor bandwidth(trace_);
  double t = config_.min_rtt_ms / 1000.0;  // request latency
  double remaining = bits;
  // Integrate the bandwidth step function in small slices; the trace wraps.
  constexpr double kSlice = 0.05;
  while (remaining > 0 && t < kMaxDownloadS) {
    const double bw_bps =
        std::max(bandwidth.bandwidth_at(start_s + t), kMinEffectiveBwMbps) *
        1e6;
    const double sent = bw_bps * kSlice;
    if (sent >= remaining) {
      t += remaining / bw_bps;
      remaining = 0;
    } else {
      remaining -= sent;
      t += kSlice;
    }
  }
  return std::min(t, kMaxDownloadS);
}

netgym::Observation AbrEnv::reset() {
  // Cheap run telemetry: one relaxed atomic add per episode/step, no RNG.
  static netgym::telemetry::Counter& episodes =
      netgym::telemetry::Registry::instance().counter("abr.episodes");
  episodes.add();
  flight_ = netgym::flight::begin_episode("abr", {"buffer_s", "rebuffer_s"});
  clock_s_ = 0.0;
  buffer_s_ = 0.0;
  next_chunk_ = 0;
  last_bitrate_ = 0;
  started_ = false;
  done_ = false;
  throughput_hist_mbps_.assign(kThroughputHistory, 0.0);
  delay_hist_s_.assign(kThroughputHistory, 0.0);
  totals_ = {};
  return make_observation();
}

AbrEnv::ChunkOutcome AbrEnv::chunk_transition(double clock_s, double buffer_s,
                                              int last_bitrate, bool started,
                                              int chunk, int action) const {
  if (action < 0 || action >= kBitrateCount) {
    throw std::invalid_argument("AbrEnv: bitrate index out of range");
  }
  const double bits = video_.chunk_size_bits(chunk, action);
  ChunkOutcome out;
  out.delay_s = download_time_s(bits, clock_s);
  out.clock_s = clock_s + out.delay_s;

  out.rebuffer_s = std::max(out.delay_s - buffer_s, 0.0);
  out.buffer_s =
      std::max(buffer_s - out.delay_s, 0.0) + config_.chunk_length_s;
  if (out.buffer_s > config_.max_buffer_s) {
    // Player pauses downloading while the buffer drains to capacity.
    out.clock_s += out.buffer_s - config_.max_buffer_s;
    out.buffer_s = config_.max_buffer_s;
  }

  const double bitrate = bitrate_mbps(action);
  const double change =
      started ? std::abs(bitrate - bitrate_mbps(last_bitrate)) : 0.0;
  out.reward = config_.reward.beta_bitrate * bitrate +
               config_.reward.alpha_rebuffer * out.rebuffer_s +
               config_.reward.gamma_change * change;
  return out;
}

netgym::Env::StepResult AbrEnv::step(int action) {
  if (done_) throw std::logic_error("AbrEnv::step: episode already finished");
  static netgym::telemetry::Counter& steps =
      netgym::telemetry::Registry::instance().counter("abr.env_steps");
  steps.add();
  const ChunkOutcome out = chunk_transition(clock_s_, buffer_s_, last_bitrate_,
                                            started_, next_chunk_, action);
  clock_s_ = out.clock_s;
  buffer_s_ = out.buffer_s;
  const double reward = out.reward;

  const double bits = video_.chunk_size_bits(next_chunk_, action);
  const double measured_mbps = bits / 1e6 / std::max(out.delay_s, 1e-6);
  push_history(measured_mbps, out.delay_s);
  totals_.bitrate_mbps_sum += bitrate_mbps(action);
  totals_.rebuffer_s_sum += out.rebuffer_s;
  if (started_) {
    totals_.change_mbps_sum +=
        std::abs(bitrate_mbps(action) - bitrate_mbps(last_bitrate_));
  }
  ++totals_.chunks;
  last_bitrate_ = action;
  started_ = true;
  ++next_chunk_;
  done_ = next_chunk_ >= video_.num_chunks();

  if (flight_ != nullptr) {
    flight_->add(action, reward, {buffer_s_, out.rebuffer_s});
  }
  if (done_) {
    // Episode stall time distribution behind the paper's tail metrics.
    static netgym::telemetry::Histogram& stall =
        netgym::telemetry::Registry::instance().histogram(
            "abr.episode_rebuffer_s");
    stall.record(totals_.rebuffer_s_sum);
    netgym::flight::submit(std::move(flight_));
  }

  StepResult result;
  result.reward = reward;
  result.done = done_;
  result.observation = make_observation();
  return result;
}

void AbrEnv::push_history(double throughput_mbps, double delay_s) {
  throughput_hist_mbps_.erase(throughput_hist_mbps_.begin());
  throughput_hist_mbps_.push_back(throughput_mbps);
  delay_hist_s_.erase(delay_hist_s_.begin());
  delay_hist_s_.push_back(delay_s);
}

netgym::Observation AbrEnv::make_observation() const {
  netgym::Observation obs(kObsSize, 0.0);
  obs[kObsLastBitrate] =
      static_cast<double>(last_bitrate_) / (kBitrateCount - 1);
  obs[kObsBuffer] = buffer_s_ / 30.0;
  for (int i = 0; i < kThroughputHistory; ++i) {
    // Log-compressed features: bandwidths span 2-1000 Mbps (Table 3), and
    // linear features that large saturate the tanh policy network.
    obs[kObsThroughputHist + i] = std::log10(1.0 + throughput_hist_mbps_[i]);
    obs[kObsDelayHist + i] = std::log10(1.0 + delay_hist_s_[i]);
  }
  const int chunk = std::min(next_chunk_, video_.num_chunks() - 1);
  for (int b = 0; b < kBitrateCount; ++b) {
    obs[kObsNextSizes + b] = video_.chunk_size_bits(chunk, b) / 8e6;  // MB
  }
  obs[kObsRemaining] =
      static_cast<double>(video_.num_chunks() - next_chunk_) /
      video_.num_chunks();
  obs[kObsChunkLength] = config_.chunk_length_s / 10.0;
  obs[kObsMinRtt] = config_.min_rtt_ms / 1000.0;
  obs[kObsMaxBuffer] = config_.max_buffer_s / 100.0;
  return obs;
}

std::unique_ptr<AbrEnv> make_abr_env(const AbrEnvConfig& config,
                                     netgym::Rng& rng) {
  netgym::AbrTraceParams params;
  params.max_bw_mbps = config.max_bw_mbps;
  params.min_bw_mbps =
      std::max(config.max_bw_mbps * config.bw_min_ratio, kMinEffectiveBwMbps);
  params.bw_change_interval_s = config.bw_change_interval_s;
  params.duration_s = std::max(config.video_length_s, 10.0);
  netgym::Trace trace = generate_abr_trace(params, rng);
  return std::make_unique<AbrEnv>(config, std::move(trace), rng.engine()());
}

std::unique_ptr<AbrEnv> make_abr_env(const AbrEnvConfig& config,
                                     const netgym::Trace& trace,
                                     netgym::Rng& rng) {
  return std::make_unique<AbrEnv>(config, trace, rng.engine()());
}

}  // namespace abr
