#pragma once

#include <string>
#include <vector>

#include "netgym/rng.hpp"

namespace netgym {

/// A bandwidth trace: a step function of link throughput over time, in the
/// `[timestamp (s), throughput (Mbps)]` format of the paper's Appendix A.2.
/// Timestamps are strictly increasing and start at or near zero; the last
/// bandwidth value is held beyond the final timestamp.
struct Trace {
  std::vector<double> timestamps_s;
  std::vector<double> bandwidth_mbps;

  std::size_t size() const { return timestamps_s.size(); }
  bool empty() const { return timestamps_s.empty(); }

  /// Total time span covered by the trace (last timestamp).
  double duration_s() const;

  /// Bandwidth in effect at time `t` (step function; clamps at both ends).
  double bandwidth_at(double t) const;

  double mean_bandwidth() const;
  double bandwidth_variance() const;
  double min_bandwidth() const;
  double max_bandwidth() const;

  /// Mean absolute difference between consecutive bandwidth samples; the
  /// "non-smoothness" measure used by the Robustify comparison (S5.5).
  double non_smoothness() const;

  /// Validate the invariants above; throws std::invalid_argument on failure.
  void validate() const;
};

/// Parameters of the ABR synthetic trace generator (Appendix A.2): timestamps
/// advance one second at a time with uniform [-0.5, 0.5] noise; each
/// throughput value is uniform in [min_bw, max_bw]; the throughput is held for
/// `bw_change_interval` seconds (plus uniform [1, 3] noise) before changing.
struct AbrTraceParams {
  double min_bw_mbps = 0.2;
  double max_bw_mbps = 5.0;
  double bw_change_interval_s = 5.0;
  double duration_s = 200.0;
};

Trace generate_abr_trace(const AbrTraceParams& params, Rng& rng);

/// Parameters of the CC synthetic trace generator (Appendix A.2): timestamps
/// advance in 0.1 s steps; each bandwidth value is uniform in [1, max_bw]
/// (Mbps, lower bound clamped below max); the bandwidth changes every
/// `bw_change_interval` seconds.
struct CcTraceParams {
  double max_bw_mbps = 3.16;
  double bw_change_interval_s = 7.5;
  double duration_s = 30.0;
};

Trace generate_cc_trace(const CcTraceParams& params, Rng& rng);

/// Serialize a trace in the Appendix-A.2 text format: one
/// "<timestamp_s> <bandwidth_mbps>" pair per line. This is also the format
/// of the Pensieve/Pantheon trace files the paper's artifact ships, so real
/// recorded traces can be dropped in. Throws std::runtime_error naming
/// `path` if the file cannot be written.
void save_trace(const Trace& trace, const std::string& path);

/// Parse a trace file saved by `save_trace` (or a Pensieve-format trace).
/// Ignores blank lines; throws std::runtime_error on malformed content and
/// validates the result.
Trace load_trace(const std::string& path);

}  // namespace netgym
