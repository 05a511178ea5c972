#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "genet/adapter.hpp"
#include "netgym/checkpoint.hpp"
#include "netgym/config.hpp"
#include "netgym/flight.hpp"
#include "netgym/parallel.hpp"
#include "netgym/rng.hpp"
#include "rl/lockstep.hpp"

namespace fleet {

namespace {

/// Sessions stepped together through one act_batch stream. Fixed (unlike
/// rl::lockstep_group_size, which adapts to the thread count) so that even
/// fast math mode -- where batched rounding depends on group size -- stays
/// deterministic across thread counts. 16 rows already saturates the batched
/// GEMM's advantage over scalar forwards.
constexpr int kGroupSize = 16;

/// Effective step bound when a scenario leaves max_steps at 0; matches the
/// netgym::run_episode safety net.
constexpr int kUnboundedSteps = 100000;

/// Device profile with dimension names resolved to indices up front, so the
/// per-session hot path does no string lookups.
struct ResolvedDevice {
  double weight = 1.0;
  std::vector<std::pair<std::size_t, double>> scales;
};

struct ResolvedScenario {
  /// Corpus-free: fleet draws its own recorded traces (below), so the
  /// adapter only builds environments from a chosen point and trace.
  std::unique_ptr<genet::TaskAdapter> adapter;
  std::vector<ResolvedDevice> devices;
  std::vector<double> device_weights;
  std::vector<netgym::Trace> corpus;  ///< empty when no recorded traces
  std::vector<std::size_t> slo_metric;  ///< SLO index -> metric index
  int max_steps = kUnboundedSteps;
};

/// Draw one session's environment. Every stochastic choice (device class,
/// config point, recorded-vs-synthetic, trace index, env-internal seeds)
/// comes from `rng`, the session's own forked stream.
std::unique_ptr<netgym::Env> build_session_env(const Scenario& sc,
                                               const ResolvedScenario& rs,
                                               netgym::Rng& rng) {
  const netgym::ConfigSpace& space = rs.adapter->space();
  netgym::Config point = space.sample(rng);
  if (!rs.devices.empty()) {
    const std::size_t di = rng.categorical(rs.device_weights);
    for (const auto& [dim, scale] : rs.devices[di].scales) {
      point.values[dim] *= scale;
    }
    point = space.clamp(point);
    for (std::size_t i = 0; i < space.dims(); ++i) {
      if (space.param(i).integer) {
        point.values[i] = std::round(point.values[i]);
      }
    }
  }
  if (!rs.corpus.empty() && rng.uniform(0.0, 1.0) < sc.trace_prob) {
    const netgym::Trace& trace = rs.corpus[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(rs.corpus.size()) - 1))];
    return rs.adapter->make_env_from_trace(trace, rng, &point);
  }
  return rs.adapter->make_env(point, rng);
}

bool slo_compliant(const SloSpec& spec, double value) {
  return spec.op == SloOp::kAtMost ? value <= spec.threshold
                                   : value >= spec.threshold;
}

ResolvedScenario resolve_and_validate(const rl::MlpPolicy& policy,
                                      const Scenario& sc) {
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument("fleet: scenario '" + sc.name + "': " + why);
  };
  if (sc.name.empty()) {
    throw std::invalid_argument("fleet: scenario with empty name");
  }
  if (sc.sessions <= 0) fail("sessions must be positive");
  if (sc.max_steps < 0) fail("max_steps must be >= 0");
  if (!(sc.trace_prob >= 0.0 && sc.trace_prob <= 1.0)) {
    fail("trace_prob must be in [0, 1]");
  }
  ResolvedScenario rs;
  rs.adapter = genet::make_adapter(sc.task, sc.space_id);
  if (policy.obs_size() != rs.adapter->obs_size() ||
      policy.action_count() != rs.adapter->action_count()) {
    fail("policy shape " + std::to_string(policy.obs_size()) + "x" +
         std::to_string(policy.action_count()) + " does not match task '" +
         sc.task + "'");
  }
  rs.max_steps = sc.max_steps > 0 ? sc.max_steps : kUnboundedSteps;
  if (sc.use_traces && sc.trace_prob > 0.0) {
    if (!rs.adapter->replays(sc.trace_set)) {
      fail("trace set " + traces::info(sc.trace_set).name +
           " does not drive task '" + sc.task + "'");
    }
    rs.corpus = traces::make_corpus(sc.trace_set, /*test_split=*/true);
    if (rs.corpus.empty()) fail("empty trace corpus");
  }
  for (const DeviceProfile& dev : sc.devices) {
    if (!(dev.weight > 0.0)) fail("device '" + dev.name + "' needs weight > 0");
    ResolvedDevice rd;
    rd.weight = dev.weight;
    for (const auto& [dim, scale] : dev.dim_scales) {
      if (!(scale > 0.0)) {
        fail("device '" + dev.name + "' scale for '" + dim +
             "' must be > 0");
      }
      rd.scales.emplace_back(rs.adapter->space().index_of(dim),
                             scale);  // throws on typo
    }
    rs.devices.push_back(std::move(rd));
    rs.device_weights.push_back(dev.weight);
  }
  const auto& names = rs.adapter->session_metric_names();
  for (const SloSpec& slo : sc.slos) {
    const auto it = std::find(names.begin(), names.end(), slo.metric);
    if (it == names.end()) fail("SLO metric '" + slo.metric + "' unknown");
    if (!std::isfinite(slo.threshold)) fail("SLO threshold must be finite");
    if (!(slo.target_fraction >= 0.0 && slo.target_fraction <= 1.0)) {
      fail("SLO target_fraction must be in [0, 1]");
    }
    rs.slo_metric.push_back(
        static_cast<std::size_t>(it - names.begin()));
  }
  return rs;
}

ScenarioResult run_scenario(const rl::MlpPolicy& policy, const Scenario& sc,
                            const ResolvedScenario& rs,
                            const FleetOptions& opts, netgym::Rng& scen_rng) {
  using netgym::telemetry::Histogram;
  const auto& names = rs.adapter->session_metric_names();
  const std::size_t nm = names.size();
  const std::int64_t sessions = sc.sessions;
  const int n_shards = static_cast<int>(std::min<std::int64_t>(
      std::max(opts.shards, 1), sessions));
  const std::int64_t per_shard = (sessions + n_shards - 1) / n_shards;

  // Shard streams forked serially: the partition and every shard's stream
  // depend only on (seed, scenario order, shard count), never on threads.
  std::vector<netgym::Rng> shard_rngs;
  shard_rngs.reserve(static_cast<std::size_t>(n_shards));
  for (int s = 0; s < n_shards; ++s) shard_rngs.push_back(scen_rng.fork());

  struct ShardStats {
    std::vector<std::unique_ptr<Histogram>> hist;
    std::vector<std::int64_t> slo_ok;
    std::int64_t steps = 0;
  };
  std::vector<ShardStats> shard_stats(static_cast<std::size_t>(n_shards));
  for (auto& st : shard_stats) {
    st.hist.reserve(nm);
    for (std::size_t m = 0; m < nm; ++m) {
      st.hist.push_back(std::make_unique<Histogram>());
    }
    st.slo_ok.assign(sc.slos.size(), 0);
  }

  const auto start = std::chrono::steady_clock::now();
  netgym::parallel_for_each(
      static_cast<std::size_t>(n_shards), [&](std::size_t s) {
        ShardStats& st = shard_stats[s];
        netgym::Rng& srng = shard_rngs[s];
        // Each shard owns an executable copy: Mlp forward scratch is mutable,
        // so sharing one network across workers would race.
        rl::MlpPolicy local(policy);
        local.set_greedy(true);
        const std::int64_t begin = static_cast<std::int64_t>(s) * per_shard;
        const std::int64_t end = std::min(sessions, begin + per_shard);
        std::vector<std::unique_ptr<netgym::Env>> envs;
        std::vector<netgym::Rng> act_rngs;
        std::vector<netgym::Env*> env_ptrs;
        std::vector<netgym::Rng*> rng_ptrs;
        std::vector<double> vals(nm);
        for (std::int64_t g = begin; g < end; g += kGroupSize) {
          const int k =
              static_cast<int>(std::min<std::int64_t>(kGroupSize, end - g));
          envs.clear();
          act_rngs.clear();
          env_ptrs.clear();
          rng_ptrs.clear();
          envs.reserve(static_cast<std::size_t>(k));
          act_rngs.reserve(static_cast<std::size_t>(k));
          for (int j = 0; j < k; ++j) {
            netgym::Rng env_rng = srng.fork();
            act_rngs.push_back(srng.fork());
            envs.push_back(build_session_env(sc, rs, env_rng));
          }
          for (int j = 0; j < k; ++j) {
            env_ptrs.push_back(envs[static_cast<std::size_t>(j)].get());
            rng_ptrs.push_back(&act_rngs[static_cast<std::size_t>(j)]);
          }
          const auto stats = rl::run_episodes_lockstep(local, env_ptrs,
                                                       rng_ptrs, rs.max_steps);
          for (int j = 0; j < k; ++j) {
            rs.adapter->session_metrics(*envs[static_cast<std::size_t>(j)],
                                        stats[static_cast<std::size_t>(j)],
                                        vals);
            for (std::size_t m = 0; m < nm; ++m) st.hist[m]->record(vals[m]);
            for (std::size_t i = 0; i < sc.slos.size(); ++i) {
              if (slo_compliant(sc.slos[i], vals[rs.slo_metric[i]])) {
                ++st.slo_ok[i];
              }
            }
            st.steps += stats[static_cast<std::size_t>(j)].steps;
          }
        }
      });

  // Serial merge in shard index order: float sums accumulate in the same
  // order at any thread count (see Histogram::merge).
  ScenarioResult r;
  r.name = sc.name;
  r.task = sc.task;
  r.space_id = sc.space_id;
  r.sessions = sessions;
  r.trace_set = rs.corpus.empty() ? "" : traces::info(sc.trace_set).name;
  r.trace_prob = rs.corpus.empty() ? 0.0 : sc.trace_prob;
  std::vector<std::unique_ptr<Histogram>> merged;
  merged.reserve(nm);
  for (std::size_t m = 0; m < nm; ++m) {
    merged.push_back(std::make_unique<Histogram>());
  }
  std::vector<std::int64_t> slo_ok(sc.slos.size(), 0);
  for (const ShardStats& st : shard_stats) {
    for (std::size_t m = 0; m < nm; ++m) merged[m]->merge(*st.hist[m]);
    for (std::size_t i = 0; i < slo_ok.size(); ++i) slo_ok[i] += st.slo_ok[i];
    r.steps += st.steps;
  }
  for (std::size_t m = 0; m < nm; ++m) {
    r.metrics.push_back(MetricSummary{names[m], merged[m]->snapshot()});
  }
  for (std::size_t i = 0; i < sc.slos.size(); ++i) {
    SloResult sr;
    sr.spec = sc.slos[i];
    sr.compliant = slo_ok[i];
    sr.fraction = static_cast<double>(slo_ok[i]) /
                  static_cast<double>(sessions);
    sr.pass = sr.fraction >= sr.spec.target_fraction - 1e-12;
    r.slos.push_back(std::move(sr));
  }
  r.duration_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return r;
}

}  // namespace

const char* slo_op_name(SloOp op) {
  return op == SloOp::kAtMost ? "<=" : ">=";
}

const std::vector<std::string>& metric_names(const std::string& task) {
  return genet::make_adapter(task, 1)->session_metric_names();
}

int task_obs_size(const std::string& task) {
  return genet::make_adapter(task, 1)->obs_size();
}

int task_action_count(const std::string& task) {
  return genet::make_adapter(task, 1)->action_count();
}

std::vector<Scenario> default_scenarios(const std::string& task,
                                        std::int64_t sessions,
                                        double trace_prob) {
  if (sessions <= 0) {
    throw std::invalid_argument("fleet: sessions must be positive");
  }
  genet::make_adapter(task, 1);  // validates the task name
  // One deployment mix per task: its device classes and SLOs, then its
  // scenarios as (name, space, share of the sessions, recorded trace set).
  struct Slice {
    const char* name;
    int space_id;
    double share;
    bool use_traces;
    traces::TraceSet trace_set;
  };
  struct Mix {
    int max_steps;
    std::vector<DeviceProfile> devices;
    std::vector<SloSpec> slos;
    std::vector<Slice> slices;
  };
  using traces::TraceSet;
  static const std::map<std::string, Mix> kMixes = {
      {"abr",
       {256,
        {{"phone", 0.50, {{"max_bw_mbps", 0.6}, {"max_buffer_s", 0.5},
                          {"min_rtt_ms", 1.5}}},
         {"desktop", 0.35, {}},
         {"tv", 0.15, {{"max_bw_mbps", 1.5}, {"max_buffer_s", 1.5},
                       {"min_rtt_ms", 0.8}}}},
        {{"rebuffer_s", SloOp::kAtMost, 0.25, 0.90},
         {"episode_reward", SloOp::kAtLeast, -5.0, 0.95}},
        {{"abr_rl1_synth", 1, 0.30, false, TraceSet::kFcc},
         {"abr_rl2_fcc", 2, 0.35, true, TraceSet::kFcc},
         {"abr_rl2_norway", 2, 0.35, true, TraceSet::kNorway}}}},
      {"cc",
       {128,
        {{"mobile", 0.5, {{"max_bw_mbps", 0.6}, {"min_rtt_ms", 1.5}}},
         {"wired", 0.5, {{"max_bw_mbps", 1.25}, {"min_rtt_ms", 0.75}}}},
        {{"queue_delay_s", SloOp::kAtMost, 0.10, 0.90},
         {"episode_reward", SloOp::kAtLeast, -300.0, 0.95}},
        {{"cc_rl1_synth", 1, 0.34, false, TraceSet::kCellular},
         {"cc_rl2_cellular", 2, 0.33, true, TraceSet::kCellular},
         {"cc_rl2_ethernet", 2, 0.33, true, TraceSet::kEthernet}}}},
      {"lb",
       {256,
        {{"small_cluster", 0.5, {{"service_rate", 0.7}}},
         {"large_cluster", 0.5, {{"service_rate", 1.4}}}},
        {{"job_slowdown", SloOp::kAtMost, 50.0, 0.90},
         {"job_delay_s", SloOp::kAtMost, 10.0, 0.95}},
        {{"lb_rl1", 1, 0.50, false, TraceSet::kFcc},
         {"lb_rl2", 2, 0.50, false, TraceSet::kFcc}}}},
  };
  const Mix& mix = kMixes.at(task);  // every registered task has a mix
  std::vector<Scenario> out;
  for (const Slice& s : mix.slices) {
    const std::int64_t n = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::llround(static_cast<double>(sessions) * s.share)));
    out.push_back({s.name, task, s.space_id, n, mix.max_steps, s.use_traces,
                   s.trace_set, s.use_traces ? trace_prob : 0.0, mix.devices,
                   mix.slos});
  }
  return out;
}

FleetResult run_fleet(const rl::MlpPolicy& policy,
                      const std::vector<Scenario>& scenarios,
                      const FleetOptions& opts) {
  if (scenarios.empty()) {
    throw std::invalid_argument("fleet: no scenarios");
  }
  if (opts.shards < 1) {
    throw std::invalid_argument("fleet: shards must be >= 1");
  }
  if (opts.worst_k < 0) {
    throw std::invalid_argument("fleet: worst_k must be >= 0");
  }
  std::vector<ResolvedScenario> resolved;
  resolved.reserve(scenarios.size());
  for (const Scenario& sc : scenarios) {
    resolved.push_back(resolve_and_validate(policy, sc));
  }
  const bool capture = !opts.out_dir.empty() && opts.worst_k > 0;
  if (capture) std::filesystem::create_directories(opts.out_dir);

  FleetResult out;
  out.seed = opts.seed;
  out.shards = opts.shards;
  out.worst_k = capture ? opts.worst_k : 0;
  out.threads = netgym::num_threads();
  netgym::Rng master(opts.seed);
  auto& recorder = netgym::flight::Recorder::instance();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    // Forked before any flight-recorder side effects: the scenario stream
    // depends only on (seed, scenario index).
    netgym::Rng scen_rng = master.fork();
    if (capture) {
      recorder.reset();
      recorder.enable(opts.worst_k);
    }
    ScenarioResult r =
        run_scenario(policy, scenarios[i], resolved[i], opts, scen_rng);
    if (capture) {
      r.flight_path = opts.out_dir + "/worst_" + scenarios[i].name + ".jsonl";
      recorder.write_jsonl(r.flight_path);
      r.flight_episodes =
          static_cast<std::int64_t>(recorder.episodes_seen());
      recorder.disable();
      recorder.reset();
    }
    out.sessions += r.sessions;
    out.steps += r.steps;
    netgym::telemetry::log_event(
        "fleet_scenario", static_cast<std::int64_t>(i),
        {{"name", r.name},
         {"sessions", r.sessions},
         {"steps", r.steps},
         {"duration_s", r.duration_s}});
    out.scenarios.push_back(std::move(r));
  }
  out.duration_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  netgym::telemetry::Registry::instance().counter("fleet.sessions")
      .add(out.sessions);
  netgym::telemetry::Registry::instance().counter("fleet.steps")
      .add(out.steps);
  return out;
}

std::string canonical_digest(const FleetResult& result) {
  std::string out = "fleet-digest v1\n";
  char buf[512];
  const auto g = [&](double v) {
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g", v);
    return std::string(num);
  };
  std::snprintf(buf, sizeof(buf),
                "seed=%" PRIu64 " shards=%d worst_k=%d sessions=%" PRId64
                " steps=%" PRId64 " scenarios=%zu\n",
                result.seed, result.shards, result.worst_k, result.sessions,
                result.steps, result.scenarios.size());
  out += buf;
  for (const ScenarioResult& r : result.scenarios) {
    std::snprintf(buf, sizeof(buf),
                  "scenario %s task=%s space=%d sessions=%" PRId64
                  " steps=%" PRId64 " trace_set=%s trace_prob=%s"
                  " flight_episodes=%" PRId64 "\n",
                  r.name.c_str(), r.task.c_str(), r.space_id, r.sessions,
                  r.steps, r.trace_set.empty() ? "-" : r.trace_set.c_str(),
                  g(r.trace_prob).c_str(), r.flight_episodes);
    out += buf;
    for (const MetricSummary& m : r.metrics) {
      const auto& s = m.stats;
      std::snprintf(buf, sizeof(buf),
                    "metric %s count=%" PRId64
                    " sum=%s min=%s max=%s p50=%s p90=%s p99=%s p999=%s"
                    " exact=%d dropped=%" PRId64 " saturated=%" PRId64 "\n",
                    m.name.c_str(), s.count, g(s.sum).c_str(),
                    g(s.min).c_str(), g(s.max).c_str(), g(s.p50).c_str(),
                    g(s.p90).c_str(), g(s.p99).c_str(), g(s.p999).c_str(),
                    s.exact ? 1 : 0, s.dropped, s.saturated);
      out += buf;
    }
    for (const SloResult& s : r.slos) {
      std::snprintf(buf, sizeof(buf),
                    "slo %s op=%s threshold=%s target=%s compliant=%" PRId64
                    " fraction=%s pass=%d\n",
                    s.spec.metric.c_str(), slo_op_name(s.spec.op),
                    g(s.spec.threshold).c_str(),
                    g(s.spec.target_fraction).c_str(), s.compliant,
                    g(s.fraction).c_str(), s.pass ? 1 : 0);
      out += buf;
    }
  }
  return out;
}

std::vector<std::string> write_regression_fixture(const std::string& dir) {
  // Fixed-seed random-init policies: the fixtures pin the fleet plumbing
  // (sampling, trace replay, lockstep replay, flight capture), not a trained
  // model.
  const auto fixture_policy = [](const std::string& task) {
    netgym::Rng prng(4242);
    return rl::MlpPolicy(task_obs_size(task), task_action_count(task),
                         {16, 16}, prng);
  };
  Scenario sc;
  sc.name = "fixture_abr";
  sc.task = "abr";
  sc.space_id = 1;
  sc.sessions = 96;
  sc.max_steps = 64;
  sc.use_traces = true;
  sc.trace_set = traces::TraceSet::kFcc;
  sc.trace_prob = 0.5;
  sc.devices = default_scenarios("abr", 96, 0.5).front().devices;
  sc.slos = {{"rebuffer_s", SloOp::kAtMost, 0.25, 0.90}};
  FleetOptions opts;
  opts.seed = 7;
  opts.shards = 8;
  opts.worst_k = 4;
  opts.out_dir = dir;
  run_fleet(fixture_policy("abr"), {sc}, opts);
  std::vector<std::string> paths = {
      (std::filesystem::path(dir) / "worst_fixture_abr.jsonl").string()};

  opts.out_dir = "";
  for (const char* task : {"abr", "cc", "lb"}) {
    const FleetResult result = run_fleet(
        fixture_policy(task), default_scenarios(task, 96, 0.5), opts);
    paths.push_back((std::filesystem::path(dir) /
                     (std::string("fleet_digest_") + task + ".txt"))
                        .string());
    netgym::write_file_bytes(paths.back(), canonical_digest(result));
  }
  return paths;
}

}  // namespace fleet
