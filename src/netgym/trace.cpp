#include "netgym/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "netgym/checkpoint.hpp"

namespace netgym {

double Trace::duration_s() const {
  return timestamps_s.empty() ? 0.0 : timestamps_s.back();
}

double Trace::bandwidth_at(double t) const {
  if (empty()) throw std::logic_error("Trace::bandwidth_at: empty trace");
  return bandwidth_mbps[segment_at(t)];
}

std::size_t Trace::segment_at(double t) const {
  // First timestamp whose value exceeds t; the sample before it is in effect.
  const auto it =
      std::upper_bound(timestamps_s.begin(), timestamps_s.end(), t);
  if (it == timestamps_s.begin()) return 0;
  return static_cast<std::size_t>(std::distance(timestamps_s.begin(), it)) - 1;
}

double Trace::mean_bandwidth() const {
  if (empty()) return 0.0;
  double sum = 0.0;
  for (double b : bandwidth_mbps) sum += b;
  return sum / static_cast<double>(bandwidth_mbps.size());
}

double Trace::bandwidth_variance() const {
  if (bandwidth_mbps.size() < 2) return 0.0;
  const double mean = mean_bandwidth();
  double acc = 0.0;
  for (double b : bandwidth_mbps) acc += (b - mean) * (b - mean);
  return acc / static_cast<double>(bandwidth_mbps.size() - 1);
}

double Trace::min_bandwidth() const {
  if (empty()) return 0.0;
  return *std::min_element(bandwidth_mbps.begin(), bandwidth_mbps.end());
}

double Trace::max_bandwidth() const {
  if (empty()) return 0.0;
  return *std::max_element(bandwidth_mbps.begin(), bandwidth_mbps.end());
}

double Trace::non_smoothness() const {
  if (bandwidth_mbps.size() < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 1; i < bandwidth_mbps.size(); ++i) {
    acc += std::abs(bandwidth_mbps[i] - bandwidth_mbps[i - 1]);
  }
  return acc / static_cast<double>(bandwidth_mbps.size() - 1);
}

void Trace::validate() const {
  if (timestamps_s.size() != bandwidth_mbps.size()) {
    throw std::invalid_argument("Trace: timestamp/bandwidth size mismatch");
  }
  for (std::size_t i = 0; i < timestamps_s.size(); ++i) {
    if (i > 0 && timestamps_s[i] <= timestamps_s[i - 1]) {
      throw std::invalid_argument("Trace: timestamps not strictly increasing");
    }
    if (!(bandwidth_mbps[i] >= 0.0) || !std::isfinite(bandwidth_mbps[i])) {
      throw std::invalid_argument("Trace: bandwidth must be finite and >= 0");
    }
  }
}

Trace generate_abr_trace(const AbrTraceParams& params, Rng& rng) {
  if (params.min_bw_mbps < 0 || params.max_bw_mbps < params.min_bw_mbps) {
    throw std::invalid_argument("generate_abr_trace: bad bandwidth range");
  }
  if (params.duration_s <= 0) {
    throw std::invalid_argument("generate_abr_trace: duration must be > 0");
  }
  Trace trace;
  double t = 0.0;
  double bw = rng.uniform(params.min_bw_mbps, params.max_bw_mbps);
  // Time until the next bandwidth change; the interval itself is noisy.
  double until_change =
      std::max(0.5, params.bw_change_interval_s + rng.uniform(1.0, 3.0));
  double last_t = -1e-3;  // first stamp ends up >= 0
  while (t <= params.duration_s) {
    // One-second ticks with uniform [-0.5, 0.5] jitter, kept increasing.
    double stamp = t + rng.uniform(-0.5, 0.5);
    stamp = std::max(stamp, last_t + 1e-3);
    trace.timestamps_s.push_back(stamp);
    trace.bandwidth_mbps.push_back(bw);
    last_t = stamp;
    t += 1.0;
    until_change -= 1.0;
    if (until_change <= 0.0) {
      bw = rng.uniform(params.min_bw_mbps, params.max_bw_mbps);
      until_change =
          std::max(0.5, params.bw_change_interval_s + rng.uniform(1.0, 3.0));
    }
  }
  trace.validate();
  return trace;
}

Trace generate_cc_trace(const CcTraceParams& params, Rng& rng) {
  if (params.max_bw_mbps <= 0) {
    throw std::invalid_argument("generate_cc_trace: max bandwidth must be > 0");
  }
  if (params.duration_s <= 0) {
    throw std::invalid_argument("generate_cc_trace: duration must be > 0");
  }
  constexpr double kStep = 0.1;  // Appendix A.2: 0.1 s timestamp step.
  const double bw_lo = std::min(1.0, params.max_bw_mbps);
  Trace trace;
  double bw = rng.uniform(bw_lo, params.max_bw_mbps);
  double until_change = std::max(kStep, params.bw_change_interval_s);
  for (double t = 0.0; t <= params.duration_s + 1e-9; t += kStep) {
    trace.timestamps_s.push_back(t + 1e-4);  // keep strictly positive steps
    trace.bandwidth_mbps.push_back(bw);
    until_change -= kStep;
    if (until_change <= 0.0) {
      bw = rng.uniform(bw_lo, params.max_bw_mbps);
      until_change = std::max(kStep, params.bw_change_interval_s);
    }
  }
  trace.validate();
  return trace;
}

void save_trace(const Trace& trace, const std::string& path) {
  trace.validate();
  std::ostringstream out;
  out.precision(9);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    out << trace.timestamps_s[i] << " " << trace.bandwidth_mbps[i] << "\n";
  }
  write_file_bytes(path, out.str());
}

Trace load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_trace: cannot read " + path);
  Trace trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::istringstream fields(line);
    double t = 0.0, bw = 0.0;
    if (!(fields >> t >> bw)) {
      throw std::runtime_error("load_trace: malformed line " +
                               std::to_string(line_no) + " in " + path);
    }
    trace.timestamps_s.push_back(t);
    trace.bandwidth_mbps.push_back(bw);
  }
  if (trace.empty()) {
    throw std::runtime_error("load_trace: no samples in " + path);
  }
  trace.validate();
  return trace;
}

}  // namespace netgym
