#include "genet/adapter.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>

#include "abr/baselines.hpp"
#include "netgym/parallel.hpp"
#include "netgym/tracing.hpp"
#include "rl/lockstep.hpp"
#include "abr/env.hpp"
#include "abr/optimal.hpp"
#include "cc/baselines.hpp"
#include "cc/env.hpp"
#include "cc/packet_sim.hpp"
#include "lb/baselines.hpp"
#include "lb/env.hpp"

namespace genet {

const netgym::Trace& matching_trace(const std::vector<netgym::Trace>& corpus,
                                    double max_bw_mbps, netgym::Rng& rng) {
  if (corpus.empty()) {
    // Without this guard the closest-trace fallback below would read
    // corpus[0] of an empty vector.
    throw std::invalid_argument("matching_trace: empty trace corpus");
  }
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const double mean = corpus[i].mean_bandwidth();
    if (mean <= max_bw_mbps && mean >= 0.02 * max_bw_mbps) {
      candidates.push_back(i);
    }
  }
  if (!candidates.empty()) {
    return corpus[candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(candidates.size()) - 1))]];
  }
  std::size_t best = 0;
  double best_dist = 1e300;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const double d = std::abs(corpus[i].mean_bandwidth() - max_bw_mbps);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return corpus[best];
}

namespace {

/// Pre-fork one RNG stream per work item, serially and in index order. Each
/// item then consumes only its own stream, which is what makes every
/// evaluation bit-identical at any thread count and any worker count.
std::vector<netgym::Rng> fork_streams(int n, netgym::Rng& rng) {
  std::vector<netgym::Rng> streams;
  streams.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) streams.push_back(rng.fork());
  return streams;
}

/// Evaluate `item(i, streams[i])` for every item under one "eval" span each
/// -- on the thread pool when `parallel_ok`, serially otherwise -- and return
/// the values in index order.
std::vector<double> forked_map(
    std::vector<netgym::Rng>& streams, bool parallel_ok,
    const std::function<double(std::size_t, netgym::Rng&)>& item) {
  std::vector<double> values(streams.size());
  const auto traced_item = [&](std::size_t i) {
    netgym::tracing::TraceSpan span("eval", "genet",
                                    static_cast<std::int64_t>(i));
    values[i] = item(i, streams[i]);
  };
  if (parallel_ok) {
    netgym::parallel_for_each(values.size(), traced_item);
  } else {
    for (std::size_t i = 0; i < values.size(); ++i) traced_item(i);
  }
  return values;
}

double mean_of(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

/// Per-item view of a shared policy: workers use their own clone; policies
/// that cannot be cloned fall back to the shared instance, which is safe
/// because `forked_map` then runs serially.
netgym::Policy& local_policy(const std::unique_ptr<netgym::Policy>& local,
                             netgym::Policy& shared) {
  return local ? *local : shared;
}

bool cloneable(const netgym::Policy& policy) {
  return policy.clone() != nullptr;
}

/// `env` as the concrete environment type `E` (const-qualified for a const
/// `env`); throws std::invalid_argument(`error`) for any other type.
template <class E, class Base>
E& env_as(Base& env, const char* error) {
  auto* e = dynamic_cast<E*>(&env);
  if (e == nullptr) throw std::invalid_argument(error);
  return *e;
}

/// Episode step cap of every evaluation (`netgym::run_episode`'s default).
constexpr int kEvalMaxSteps = 100000;

/// One evaluation item: the environment the evaluated policy rolls through,
/// plus an optional `finish` hook that consumes that episode's mean reward
/// -- running any baseline/oracle episode on the item's stream -- and
/// returns the item's value. Everything `finish` needs (reference env,
/// baseline policy) is captured inside it; a null `finish` means the item's
/// value is the policy's mean reward itself.
struct EvalPlan {
  std::unique_ptr<netgym::Env> rl_env;
  std::function<double(double rl_mean_reward, netgym::Rng& item_rng)> finish;
};

/// Builds item `i`'s plan, drawing its setup from the item's stream.
using PlanFn = std::function<EvalPlan(std::size_t i, netgym::Rng& item_rng)>;

/// The one evaluation runner. Every item draws from its own stream in the
/// same order on both branches: the plan's setup draws, then the policy's
/// episode, then the finish draws.
///
/// - `rl::MlpPolicy`: items are grouped into jobs (one policy copy and one
///   "eval" span per job); each job's episodes advance together through
///   batched forward passes, then each item's `finish` runs in item order.
///   In strict math mode a batched row is bit-identical to a scalar forward,
///   so the values do not depend on group size or thread count.
/// - any other policy: each item runs alone (plan, `netgym::run_episode`,
///   finish) under its own "eval" span, on the thread pool with a per-item
///   clone when the policy is cloneable, serially on the shared instance
///   otherwise.
std::vector<double> run_plans(std::vector<netgym::Rng>& streams,
                              netgym::Policy& policy, const PlanFn& plan) {
  auto* mlp = dynamic_cast<rl::MlpPolicy*>(&policy);
  if (mlp == nullptr) {
    return forked_map(
        streams, cloneable(policy), [&](std::size_t i, netgym::Rng& item_rng) {
          const std::unique_ptr<netgym::Policy> local = policy.clone();
          const EvalPlan p = plan(i, item_rng);
          const double reward =
              netgym::run_episode(*p.rl_env, local_policy(local, policy),
                                  item_rng, kEvalMaxSteps)
                  .mean_reward;
          return p.finish ? p.finish(reward, item_rng) : reward;
        });
  }
  const std::size_t count = streams.size();
  std::vector<double> values(count);
  const std::size_t group = rl::lockstep_group_size(count);
  const std::size_t jobs = (count + group - 1) / group;
  netgym::parallel_for_each(jobs, [&](std::size_t g) {
    const std::size_t begin = g * group;
    const std::size_t end = std::min(begin + group, count);
    netgym::tracing::TraceSpan span("eval", "genet",
                                    static_cast<std::int64_t>(begin));
    rl::MlpPolicy local = *mlp;
    std::vector<EvalPlan> plans;
    std::vector<netgym::Env*> envs;
    std::vector<netgym::Rng*> rngs;
    plans.reserve(end - begin);
    envs.reserve(end - begin);
    rngs.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      plans.push_back(plan(i, streams[i]));
      envs.push_back(plans.back().rl_env.get());
      rngs.push_back(&streams[i]);
    }
    const std::vector<netgym::EpisodeStats> stats =
        rl::run_episodes_lockstep(local, envs, rngs, kEvalMaxSteps);
    for (std::size_t j = 0; j < plans.size(); ++j) {
      const std::size_t i = begin + j;
      values[i] = plans[j].finish
                      ? plans[j].finish(stats[j].mean_reward, streams[i])
                      : stats[j].mean_reward;
    }
  });
  return values;
}

/// Per-item plan of a gap evaluation: the evaluated policy and the reference
/// (baseline policy for kind "baseline", offline optimum for "optimum") see
/// the same environment, built twice from one forked env stream; the
/// reference's episode then draws from the item's stream after the policy's.
PlanFn gap_plan(const TaskAdapter& task, const std::string& kind,
                const std::string& baseline, const netgym::Config& config) {
  if (kind != "baseline" && kind != "optimum") {
    throw std::invalid_argument("gap evaluation: unknown kind '" + kind + "'");
  }
  const bool to_baseline = kind == "baseline";
  return [&task, &baseline, &config, to_baseline](std::size_t,
                                                  netgym::Rng& item_rng) {
    netgym::Rng env_rng = item_rng.fork();
    netgym::Rng env_rng2 = env_rng;
    EvalPlan p;
    p.rl_env = task.make_env(config, env_rng);
    std::shared_ptr<netgym::Env> env_ref = task.make_env(config, env_rng2);
    if (to_baseline) {
      std::shared_ptr<netgym::Policy> rule =
          task.make_baseline(baseline, *env_ref);
      p.finish = [env_ref, rule](double r_rl, netgym::Rng& rng) {
        return netgym::run_episode(*env_ref, *rule, rng, kEvalMaxSteps)
                   .mean_reward -
               r_rl;
      };
    } else {
      p.finish = [&task, env_ref](double r_rl, netgym::Rng& rng) {
        return task.optimal_mean_reward(*env_ref, rng) - r_rl;
      };
    }
    return p;
  };
}

GapEvalHook g_gap_eval_hook;

/// Route a gap evaluation through the distributed hook when the whole
/// computation is reconstructible worker-side; nullopt keeps the in-process
/// path. The caller forked `streams` before anything ships, so the hook's
/// values depend only on the stream states and the request content: worker
/// count, assignment order, and worker death cannot change them.
std::optional<std::vector<double>> dist_gap_eval(
    const TaskAdapter& task, netgym::Policy& policy, const std::string& kind,
    const std::string& baseline, const netgym::Config& config,
    const std::vector<netgym::Rng>& streams) {
  if (!g_gap_eval_hook) return std::nullopt;
  const auto* mlp = dynamic_cast<const rl::MlpPolicy*>(&policy);
  if (mlp == nullptr) return std::nullopt;
  GapEvalRequest req;
  req.adapter_spec = task.dist_spec();
  if (req.adapter_spec.empty()) return std::nullopt;
  req.kind = kind;
  req.baseline = baseline;
  req.config = config.values;
  req.policy_params = mlp->snapshot();
  req.greedy = mlp->greedy();
  req.stream_states.reserve(streams.size());
  for (const netgym::Rng& s : streams) req.stream_states.push_back(s.state());
  std::vector<double> values = g_gap_eval_hook(req);
  if (values.size() != streams.size()) {
    throw std::runtime_error("gap eval hook returned " +
                             std::to_string(values.size()) + " values for " +
                             std::to_string(streams.size()) + " items");
  }
  return values;
}

/// gap_to_baseline / gap_to_optimum: the mean gap over `n` item streams
/// forked from `rng`, evaluated by the hook or in process.
double mean_gap(const TaskAdapter& task, netgym::Policy& rl_policy,
                const std::string& kind, const std::string& baseline,
                const netgym::Config& config, int n, netgym::Rng& rng) {
  std::vector<netgym::Rng> streams = fork_streams(n, rng);
  if (const auto distributed =
          dist_gap_eval(task, rl_policy, kind, baseline, config, streams)) {
    return mean_of(*distributed);
  }
  return mean_of(gap_values(task, rl_policy, kind, baseline, config, streams));
}

}  // namespace

void set_gap_eval_hook(GapEvalHook hook) {
  g_gap_eval_hook = std::move(hook);
}

bool gap_eval_hook_installed() {
  return static_cast<bool>(g_gap_eval_hook);
}

std::vector<double> gap_values(const TaskAdapter& task,
                               netgym::Policy& rl_policy,
                               const std::string& kind,
                               const std::string& baseline,
                               const netgym::Config& config,
                               std::vector<netgym::Rng>& streams) {
  return run_plans(streams, rl_policy, gap_plan(task, kind, baseline, config));
}

std::unique_ptr<TaskAdapter> make_adapter(const std::string& task,
                                          int space_id,
                                          TraceMixOptions traces) {
  if (task == "abr") {
    return std::make_unique<AbrAdapter>(space_id, std::move(traces));
  }
  if (task == "cc") {
    return std::make_unique<CcAdapter>(space_id, std::move(traces));
  }
  if (task == "lb") {
    if (!traces.corpus.empty()) {
      throw std::invalid_argument("make_adapter: lb replays no traces");
    }
    return std::make_unique<LbAdapter>(space_id);
  }
  throw std::invalid_argument("unknown task '" + task + "' (want abr|cc|lb)");
}

std::unique_ptr<TaskAdapter> make_adapter_from_spec(const std::string& spec) {
  const std::size_t slash = spec.find('/');
  if (slash != std::string::npos && slash + 1 < spec.size()) {
    const std::string name = spec.substr(0, slash);
    const std::string id_text = spec.substr(slash + 1);
    bool digits = true;
    for (char c : id_text) digits = digits && c >= '0' && c <= '9';
    if (digits && id_text.size() <= 2) {
      const int space_id = std::stoi(id_text);
      if (space_id >= 1 && space_id <= 3) return make_adapter(name, space_id);
    }
  }
  throw std::invalid_argument("make_adapter_from_spec: unrecognized spec '" +
                              spec + "'");
}

std::unique_ptr<netgym::Env> TaskAdapter::make_env_from_trace(
    const netgym::Trace&, netgym::Rng&, const netgym::Config*) const {
  throw std::logic_error(name() + ": task has no trace-driven environments");
}

bool TaskAdapter::replays(traces::TraceSet) const { return false; }

std::unique_ptr<rl::ActorCriticBase> TaskAdapter::make_trainer(
    std::uint64_t seed) const {
  return std::make_unique<rl::A2CTrainer>(obs_size_, action_count_,
                                          rl::TrainerOptions{}, seed);
}

std::unique_ptr<rl::MlpPolicy> TaskAdapter::make_policy(
    const std::vector<double>& params) const {
  netgym::Rng init_rng(0);
  auto policy = std::make_unique<rl::MlpPolicy>(
      obs_size_, action_count_, rl::TrainerOptions{}.hidden, init_rng);
  policy->restore(params);
  policy->set_greedy(true);
  return policy;
}

std::string TaskAdapter::dist_spec() const {
  return name_ + "/" + std::to_string(space_id_);
}

TaskAdapter::TaskAdapter(std::string name, int space_id,
                         netgym::ConfigSpace space, int obs_size,
                         int action_count,
                         const std::vector<std::string>& metric_names)
    : name_(std::move(name)),
      space_id_(space_id),
      space_(std::move(space)),
      obs_size_(obs_size),
      action_count_(action_count),
      metric_names_(&metric_names) {}

double TaskAdapter::config_non_smoothness(const netgym::Config&,
                                          netgym::Rng&) const {
  return 0.0;
}

rl::EnvFactory TaskAdapter::factory_for(
    const netgym::ConfigDistribution& dist) const {
  return [this, &dist](netgym::Rng& rng) {
    return make_env(dist.sample(rng), rng);
  };
}

rl::EnvFactory TaskAdapter::factory_for(const netgym::Config& config) const {
  return [this, config](netgym::Rng& rng) { return make_env(config, rng); };
}

double test_on_config(const TaskAdapter& task, netgym::Policy& policy,
                      const netgym::Config& config, int n, netgym::Rng& rng) {
  if (n <= 0) throw std::invalid_argument("test_on_config: n must be > 0");
  std::vector<netgym::Rng> streams = fork_streams(n, rng);
  return mean_of(
      run_plans(streams, policy, [&](std::size_t, netgym::Rng& item_rng) {
        return EvalPlan{task.make_env(config, item_rng), nullptr};
      }));
}

double test_on_distribution(const TaskAdapter& task, netgym::Policy& policy,
                            const netgym::ConfigDistribution& dist, int n,
                            netgym::Rng& rng) {
  if (n <= 0) {
    throw std::invalid_argument("test_on_distribution: n must be > 0");
  }
  std::vector<netgym::Rng> streams = fork_streams(n, rng);
  return mean_of(
      run_plans(streams, policy, [&](std::size_t, netgym::Rng& item_rng) {
        return EvalPlan{task.make_env(dist.sample(item_rng), item_rng),
                        nullptr};
      }));
}

std::vector<double> test_per_trace(const TaskAdapter& task,
                                   netgym::Policy& policy,
                                   const std::vector<netgym::Trace>& corpus,
                                   netgym::Rng& rng) {
  std::vector<netgym::Rng> streams =
      fork_streams(static_cast<int>(corpus.size()), rng);
  return run_plans(streams, policy, [&](std::size_t i, netgym::Rng& item_rng) {
    return EvalPlan{task.make_env_from_trace(corpus[i], item_rng), nullptr};
  });
}

double gap_to_baseline(const TaskAdapter& task, netgym::Policy& rl_policy,
                       const std::string& baseline_name,
                       const netgym::Config& config, int n,
                       netgym::Rng& rng) {
  if (n <= 0) throw std::invalid_argument("gap_to_baseline: n must be > 0");
  return mean_gap(task, rl_policy, "baseline", baseline_name, config, n, rng);
}

double gap_to_optimum(const TaskAdapter& task, netgym::Policy& rl_policy,
                      const netgym::Config& config, int n, netgym::Rng& rng) {
  if (n <= 0) throw std::invalid_argument("gap_to_optimum: n must be > 0");
  return mean_gap(task, rl_policy, "optimum", "", config, n, rng);
}

double gap_between(const TaskAdapter& task, netgym::Policy& policy,
                   netgym::Policy& reference, const netgym::Config& config,
                   int n, netgym::Rng& rng) {
  if (n <= 0) throw std::invalid_argument("gap_between: n must be > 0");
  // Not an EvalPlan: the reference's episode draws from the item stream
  // before the policy's, the reverse of the plan/finish order.
  const bool parallel_ok = cloneable(policy) && cloneable(reference);
  std::vector<netgym::Rng> streams = fork_streams(n, rng);
  return mean_of(forked_map(
      streams, parallel_ok, [&](std::size_t, netgym::Rng& item_rng) {
        const std::unique_ptr<netgym::Policy> local = policy.clone();
        const std::unique_ptr<netgym::Policy> local_ref = reference.clone();
        netgym::Rng env_rng = item_rng.fork();
        netgym::Rng env_rng2 = env_rng;
        auto env_policy = task.make_env(config, env_rng);
        auto env_reference = task.make_env(config, env_rng2);
        // Two statements, reference first: C++ leaves the evaluation order
        // of the operands of `-` unspecified, and both episodes draw from
        // `item_rng`. This order gives the self-play values pinned in
        // eval_runner_test.
        const double r_reference =
            netgym::run_episode(*env_reference,
                                local_policy(local_ref, reference), item_rng)
                .mean_reward;
        const double r_policy =
            netgym::run_episode(*env_policy, local_policy(local, policy),
                                item_rng)
                .mean_reward;
        return r_reference - r_policy;
      }));
}

// ---------------------------------------------------------------------------
// ABR
// ---------------------------------------------------------------------------

const std::vector<std::string> kAbrMetrics = {"episode_reward", "rebuffer_s",
                                              "bitrate_mbps"};

AbrAdapter::AbrAdapter(int space_id, TraceMixOptions traces)
    : TaskAdapter("abr", space_id, abr::abr_config_space(space_id),
                  abr::AbrEnv::kObsSize, abr::kBitrateCount, kAbrMetrics),
      traces_(std::move(traces)) {}

std::string AbrAdapter::dist_spec() const {
  // A loaded trace corpus cannot travel in a short spec; keep those local.
  return traces_.corpus.empty() ? TaskAdapter::dist_spec() : "";
}

std::unique_ptr<netgym::Env> AbrAdapter::make_env(
    const netgym::Config& config, netgym::Rng& rng) const {
  const abr::AbrEnvConfig cfg = abr::abr_config_from_point(config);
  if (!traces_.corpus.empty() && rng.bernoulli(traces_.trace_prob)) {
    return make_env_from_trace(
        matching_trace(traces_.corpus, cfg.max_bw_mbps, rng), rng, &config);
  }
  return abr::make_abr_env(cfg, rng);
}

std::unique_ptr<netgym::Env> AbrAdapter::make_env_from_trace(
    const netgym::Trace& trace, netgym::Rng& rng,
    const netgym::Config* point) const {
  return abr::make_abr_env(
      point != nullptr ? abr::abr_config_from_point(*point)
                       : abr::AbrEnvConfig{},
      trace, rng);
}

bool AbrAdapter::replays(traces::TraceSet set) const {
  return traces::info(set).for_abr;
}

void AbrAdapter::session_metrics(const netgym::Env& env,
                                 const netgym::EpisodeStats& stats,
                                 std::span<double> out) const {
  const auto& e =
      env_as<const abr::AbrEnv>(env, "AbrAdapter: env is not an AbrEnv");
  out[0] = stats.mean_reward;
  out[1] = e.totals().mean_rebuffer_s();
  out[2] = e.totals().mean_bitrate_mbps();
}

std::vector<std::string> AbrAdapter::baseline_names() const {
  return {"mpc", "bba", "oboe", "naive"};
}

std::unique_ptr<netgym::Policy> AbrAdapter::make_baseline(
    const std::string& name, const netgym::Env&) const {
  if (name == "mpc") return std::make_unique<abr::RobustMpcPolicy>();
  if (name == "bba") return std::make_unique<abr::BbaPolicy>();
  if (name == "oboe") return std::make_unique<abr::OboePolicy>();
  if (name == "naive") return std::make_unique<abr::NaiveAbrPolicy>();
  throw std::invalid_argument("AbrAdapter: unknown baseline '" + name + "'");
}

double AbrAdapter::optimal_mean_reward(netgym::Env& env, netgym::Rng&) const {
  return abr::offline_optimal(
             env_as<abr::AbrEnv>(env, "AbrAdapter: env is not an AbrEnv"),
             /*beam_width=*/32)
      .mean_reward;
}

double AbrAdapter::config_non_smoothness(const netgym::Config& config,
                                         netgym::Rng& rng) const {
  const abr::AbrEnvConfig cfg = abr::abr_config_from_point(config);
  double total = 0.0;
  constexpr int kSamples = 3;
  for (int i = 0; i < kSamples; ++i) {
    auto env = abr::make_abr_env(cfg, rng);
    total += env->trace().non_smoothness();
  }
  return total / kSamples;
}

// ---------------------------------------------------------------------------
// CC
// ---------------------------------------------------------------------------

const std::vector<std::string> kCcMetrics = {"episode_reward", "queue_delay_s",
                                             "throughput_mbps"};

CcAdapter::CcAdapter(int space_id, TraceMixOptions traces,
                     bool use_packet_sim)
    : TaskAdapter("cc", space_id, cc::cc_config_space(space_id),
                  cc::CcEnv::kObsSize, cc::kRateActionCount, kCcMetrics),
      traces_(std::move(traces)),
      use_packet_sim_(use_packet_sim) {}

std::string CcAdapter::dist_spec() const {
  if (!traces_.corpus.empty() || use_packet_sim_) return "";
  return TaskAdapter::dist_spec();
}

std::unique_ptr<netgym::Env> CcAdapter::make_env(const netgym::Config& config,
                                                 netgym::Rng& rng) const {
  const cc::CcEnvConfig cfg = cc::cc_config_from_point(config);
  if (!traces_.corpus.empty() && rng.bernoulli(traces_.trace_prob)) {
    return make_env_from_trace(
        matching_trace(traces_.corpus, cfg.max_bw_mbps, rng), rng, &config);
  }
  if (use_packet_sim_) return cc::make_packet_cc_env(cfg, rng);
  return cc::make_cc_env(cfg, rng);
}

std::unique_ptr<netgym::Env> CcAdapter::make_env_from_trace(
    const netgym::Trace& trace, netgym::Rng& rng,
    const netgym::Config* point) const {
  const cc::CcEnvConfig cfg =
      point != nullptr ? cc::cc_config_from_point(*point) : cc::CcEnvConfig{};
  if (use_packet_sim_) return cc::make_packet_cc_env(cfg, trace, rng);
  return cc::make_cc_env(cfg, trace, rng);
}

bool CcAdapter::replays(traces::TraceSet set) const {
  return !traces::info(set).for_abr;
}

void CcAdapter::session_metrics(const netgym::Env& env,
                                const netgym::EpisodeStats& stats,
                                std::span<double> out) const {
  const auto& e = env_as<const cc::CcEnv>(env, "CcAdapter: env is not a CcEnv");
  out[0] = stats.mean_reward;
  out[1] = std::max(
      e.totals().mean_latency_s() - e.config().min_rtt_ms / 1000.0, 0.0);
  out[2] = e.totals().mean_throughput_mbps(std::max(e.clock_s(), 1e-9));
}

std::vector<std::string> CcAdapter::baseline_names() const {
  return {"bbr", "cubic", "vivace", "copa"};
}

std::unique_ptr<netgym::Policy> CcAdapter::make_baseline(
    const std::string& name, const netgym::Env& env) const {
  if (name == "bbr") return std::make_unique<cc::BbrPolicy>();
  if (name == "cubic") return std::make_unique<cc::CubicPolicy>();
  if (name == "vivace") return std::make_unique<cc::VivacePolicy>();
  if (name == "copa") return std::make_unique<cc::CopaPolicy>();
  if (name == "oracle") {
    return std::make_unique<cc::OraclePolicy>(
        env_as<const cc::CcEnv>(env, "CcAdapter: env is not a CcEnv"));
  }
  throw std::invalid_argument("CcAdapter: unknown baseline '" + name + "'");
}

double CcAdapter::optimal_mean_reward(netgym::Env& env,
                                      netgym::Rng& rng) const {
  // The oracle reads the trace through a fluid CcEnv; gap-to-optimum is
  // only supported on the fluid backend.
  auto& cc_env = env_as<cc::CcEnv>(
      env, "CcAdapter: gap-to-optimum needs the fluid CcEnv backend");
  cc::OraclePolicy oracle(cc_env);
  return netgym::run_episode(cc_env, oracle, rng).mean_reward;
}

double CcAdapter::config_non_smoothness(const netgym::Config& config,
                                        netgym::Rng& rng) const {
  const cc::CcEnvConfig cfg = cc::cc_config_from_point(config);
  double total = 0.0;
  constexpr int kSamples = 3;
  for (int i = 0; i < kSamples; ++i) {
    auto env = cc::make_cc_env(cfg, rng);
    total += env->trace().non_smoothness();
  }
  return total / kSamples;
}

std::unique_ptr<rl::ActorCriticBase> CcAdapter::make_trainer(
    std::uint64_t seed) const {
  rl::TrainerOptions options;  // Aurora trains with PPO.
  options.max_steps_per_episode = 300;
  return std::make_unique<rl::PPOTrainer>(obs_size(), action_count(), options,
                                          seed);
}

// ---------------------------------------------------------------------------
// LB
// ---------------------------------------------------------------------------

const std::vector<std::string> kLbMetrics = {"episode_reward", "job_slowdown",
                                             "job_delay_s"};

LbAdapter::LbAdapter(int space_id)
    : TaskAdapter("lb", space_id, lb::lb_config_space(space_id),
                  lb::LbEnv::kObsSize, lb::kNumServers, kLbMetrics) {}

std::unique_ptr<netgym::Env> LbAdapter::make_env(const netgym::Config& config,
                                                 netgym::Rng& rng) const {
  return lb::make_lb_env(lb::lb_config_from_point(config), rng);
}

void LbAdapter::session_metrics(const netgym::Env& env,
                                const netgym::EpisodeStats& stats,
                                std::span<double> out) const {
  const auto& e =
      env_as<const lb::LbEnv>(env, "LbAdapter: env is not an LbEnv");
  out[0] = stats.mean_reward;
  out[1] = e.totals().mean_slowdown();
  out[2] = e.totals().mean_delay_s();
}

std::vector<std::string> LbAdapter::baseline_names() const {
  return {"llf", "shortest", "least_requests", "po2", "random", "naive"};
}

std::unique_ptr<netgym::Policy> LbAdapter::make_baseline(
    const std::string& name, const netgym::Env& env) const {
  if (name == "llf") return std::make_unique<lb::LlfPolicy>();
  if (name == "shortest") {
    return std::make_unique<lb::ShortestCompletionPolicy>();
  }
  if (name == "least_requests") {
    return std::make_unique<lb::LeastRequestsPolicy>();
  }
  if (name == "random") return std::make_unique<lb::RandomLbPolicy>();
  if (name == "po2") return std::make_unique<lb::PowerOfTwoPolicy>();
  if (name == "naive") return std::make_unique<lb::NaiveLbPolicy>();
  if (name == "oracle") {
    return std::make_unique<lb::OracleLbPolicy>(
        env_as<const lb::LbEnv>(env, "LbAdapter: env is not an LbEnv"));
  }
  throw std::invalid_argument("LbAdapter: unknown baseline '" + name + "'");
}

double LbAdapter::optimal_mean_reward(netgym::Env& env,
                                      netgym::Rng& rng) const {
  auto& lb_env = env_as<lb::LbEnv>(env, "LbAdapter: env is not an LbEnv");
  lb::OracleLbPolicy oracle(lb_env);
  return netgym::run_episode(lb_env, oracle, rng).mean_reward;
}

}  // namespace genet
