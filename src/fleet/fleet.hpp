#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netgym/telemetry.hpp"
#include "rl/policy.hpp"
#include "traces/tracesets.hpp"

namespace fleet {

// Fleet-scale evaluation (DESIGN.md S5h): replay one trained policy over
// millions of heterogeneous sessions and stream population percentiles
// (p50/p99/p99.9 rebuffer, slowdown, queue delay, episode reward) instead of
// storing per-episode data. A fleet run is a list of Scenarios; each scenario
// samples sessions from a ConfigSpace, optionally replays recorded traces,
// skews sampled configs per simulated device class, and scores online SLOs.
//
// Determinism contract: a scenario's sessions are partitioned into a FIXED
// number of shards (FleetOptions::shards, independent of thread count). Every
// shard gets an Rng forked serially from the scenario stream, every session
// forks its env/action streams serially from its shard stream, sessions run
// in lockstep groups of a fixed size through act_batch (bit-identical to
// scalar in strict math mode), and per-shard Histograms are merged in shard
// index order after the pool joins -- so every output number, including float
// sums, is bit-identical at any thread count. canonical_digest() serializes
// exactly the deterministic fields; ctest and CI pin the 1-vs-4-thread
// digests byte-for-byte.

/// A simulated device class: a sampling weight plus multiplicative skews of
/// named config dimensions (a phone has less bandwidth and buffer than a TV).
/// Scaled values are clamped back into the scenario's ConfigSpace and
/// re-rounded on integer dims.
struct DeviceProfile {
  std::string name;
  double weight = 1.0;
  std::vector<std::pair<std::string, double>> dim_scales;
};

enum class SloOp { kAtMost, kAtLeast };

/// "<=" or ">=".
const char* slo_op_name(SloOp op);

/// One service-level objective, evaluated online per session: at least
/// `target_fraction` of sessions must have `metric` op `threshold`
/// (e.g. 90% of sessions rebuffer at most 0.25 s per chunk).
struct SloSpec {
  std::string metric;
  SloOp op = SloOp::kAtMost;
  double threshold = 0.0;
  double target_fraction = 0.99;
};

/// One homogeneous slice of the fleet: a task, a config space to sample,
/// an optional recorded-trace mix, device diversity, and its SLOs.
struct Scenario {
  std::string name;
  std::string task;  ///< "abr", "cc", or "lb"
  int space_id = 1;  ///< RL1/RL2/RL3 ConfigSpace of the task (Tables 3-5)
  std::int64_t sessions = 0;
  int max_steps = 0;  ///< per-session step cap; 0 = effectively unbounded
  bool use_traces = false;  ///< replay recorded traces for some sessions
  traces::TraceSet trace_set = traces::TraceSet::kFcc;
  double trace_prob = 0.0;  ///< per-session probability of a recorded trace
  std::vector<DeviceProfile> devices;  ///< empty = no device skew
  std::vector<SloSpec> slos;
};

struct FleetOptions {
  std::uint64_t seed = 1;
  /// Fixed shard count -- part of the determinism contract, NOT a thread
  /// count. Clamped to the session count per scenario.
  int shards = 256;
  /// Worst-k sessions per scenario routed through the netgym::flight
  /// recorder (0 disables). Requires out_dir.
  int worst_k = 8;
  /// Directory for per-scenario worst-k JSONL dumps ("" disables flight
  /// capture entirely). run_fleet owns the process-wide flight recorder
  /// while a scenario with capture runs.
  std::string out_dir;
};

/// Population statistics of one per-session metric.
struct MetricSummary {
  std::string name;
  netgym::telemetry::Histogram::Snapshot stats;
};

struct SloResult {
  SloSpec spec;
  std::int64_t compliant = 0;
  double fraction = 0.0;
  bool pass = false;
};

struct ScenarioResult {
  std::string name;
  std::string task;
  int space_id = 0;
  std::int64_t sessions = 0;
  std::int64_t steps = 0;
  double duration_s = 0.0;  ///< wall clock; excluded from canonical_digest
  std::string trace_set;    ///< "" when the scenario is purely synthetic
  double trace_prob = 0.0;
  std::vector<MetricSummary> metrics;
  std::vector<SloResult> slos;
  std::string flight_path;  ///< worst-k JSONL ("" when capture was off)
  std::int64_t flight_episodes = 0;
};

struct FleetResult {
  std::uint64_t seed = 0;
  int shards = 0;
  int worst_k = 0;
  int threads = 0;          ///< thread count of the run; excluded from digest
  std::int64_t sessions = 0;
  std::int64_t steps = 0;
  double duration_s = 0.0;  ///< wall clock; excluded from canonical_digest
  std::vector<ScenarioResult> scenarios;
};

/// Lookups through genet::make_adapter(task, 1): the per-session metric
/// names streamed for a task, in recording order, and its policy shape.
/// Throw std::invalid_argument on an unknown task.
const std::vector<std::string>& metric_names(const std::string& task);
int task_obs_size(const std::string& task);
int task_action_count(const std::string& task);

/// The default heterogeneous mix for a task: synthetic + recorded-trace
/// scenarios over RL1/RL2 spaces with per-task device profiles and SLOs,
/// splitting `sessions` across scenarios. `trace_prob` sets the recorded
/// share of trace-backed scenarios' sessions.
std::vector<Scenario> default_scenarios(const std::string& task,
                                        std::int64_t sessions,
                                        double trace_prob);

/// Replay `policy` (greedy; the caller's greedy flag is ignored -- fleet
/// evaluation is deployment evaluation) over every scenario sequentially,
/// sharding each scenario's sessions across the global ThreadPool. Validates
/// everything up front (policy/task shape, trace-set task compatibility,
/// device dims, SLO metric names) and throws std::invalid_argument on
/// misconfiguration. See the determinism contract above.
FleetResult run_fleet(const rl::MlpPolicy& policy,
                      const std::vector<Scenario>& scenarios,
                      const FleetOptions& opts);

/// Canonical text serialization of every deterministic field of a result
/// (doubles as %.17g bit-faithful decimals; wall-clock and thread count
/// excluded). Two runs of the same fleet at different thread counts must
/// produce byte-identical digests; fleet_test and the cli_fleet ctests
/// compare these.
std::string canonical_digest(const FleetResult& result);

/// Deterministic tiny fleets (fixed-seed random-init policies) whose outputs
/// are committed as regression fixtures: worst_fixture_abr.jsonl, the worst-4
/// flight recordings of a 96-session ABR fleet with an FCC trace mix, and
/// fleet_digest_<task>.txt, the canonical_digest of each task's 96-session
/// default mix at trace_prob 0.5. Writes the files under `dir` and returns
/// their paths; tools/make_fleet_fixtures regenerates the committed copies
/// and fleet_test byte-compares a fresh run against them.
std::vector<std::string> write_regression_fixture(const std::string& dir);

}  // namespace fleet
