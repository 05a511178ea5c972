#include "genet/curriculum.hpp"

#include <algorithm>
#include <stdexcept>

#include "netgym/telemetry.hpp"
#include "netgym/tracing.hpp"

namespace genet {

namespace {

/// FNV-1a hash of the (textual) RNG state: a compact fingerprint recording
/// which point of the random stream a BO trial's evaluations drew from,
/// without dumping the full mt19937_64 state into every provenance record.
std::int64_t rng_fingerprint(const netgym::Rng& rng) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : rng.state()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<std::int64_t>(h);
}

/// Run a BO search over the task's configuration space maximizing
/// `criterion`; returns the best configuration found and its criterion
/// value. This is the shared engine of every BO-driven scheme; Genet
/// restarts it per round (S4.2).
///
/// Provenance: with a RunLogger installed, every trial emits a
/// "bo_trial_provenance" record -- normalized and denormalized candidate,
/// the GP surrogate's predicted mean/variance and winning acquisition score
/// (gp_valid=0 during the initial random phase), the measured criterion
/// value, envs_per_eval, the running best, and an RNG-state fingerprint
/// identifying the evaluation's random stream. Emitted after each trial's
/// RNG use, so logging cannot change what the search explores.
template <typename Criterion>
CurriculumScheme::Selection bo_search(const TaskAdapter& task,
                                      const SearchOptions& options,
                                      netgym::Rng& rng, int round,
                                      const std::string& scheme,
                                      Criterion&& criterion) {
  namespace tel = netgym::telemetry;
  const netgym::ConfigSpace& space = task.space();
  bo::BayesianOptimizer optimizer(static_cast<int>(space.dims()),
                                  rng.engine()());
  for (int trial = 0; trial < options.bo_trials; ++trial) {
    netgym::tracing::TraceSpan span("bo_trial", "genet", trial);
    const std::int64_t fingerprint = rng_fingerprint(rng);
    const std::vector<double> unit = optimizer.propose();
    const bo::BayesianOptimizer::ProposalPrediction pred =
        optimizer.last_proposal_prediction();
    const netgym::Config config = space.denormalize(unit);
    const double measured = criterion(config);
    optimizer.update(unit, measured);
    if (tel::logging_enabled()) {
      tel::log_event(
          "bo_trial_provenance", trial,
          {{"round", static_cast<std::int64_t>(round)},
           {"scheme", scheme},
           {"unit", unit},
           {"config", config.values},
           {"measured_gap", measured},
           {"envs_per_eval", static_cast<std::int64_t>(options.envs_per_eval)},
           {"gp_valid", static_cast<std::int64_t>(pred.valid ? 1 : 0)},
           {"gp_mean", pred.mean},
           {"gp_variance", pred.variance},
           {"acquisition", pred.acquisition},
           {"best_value", optimizer.best_value()},
           {"rng_fingerprint", fingerprint}});
    }
  }
  return {space.denormalize(optimizer.best_point()), optimizer.best_value()};
}

}  // namespace

void CurriculumScheme::save_state(netgym::checkpoint::Snapshot&,
                                  const std::string&) const {}

void CurriculumScheme::load_state(const netgym::checkpoint::Snapshot&,
                                  const std::string&) {}

GenetScheme::GenetScheme(std::string baseline_name, SearchOptions options)
    : baseline_name_(std::move(baseline_name)), options_(options) {}

CurriculumScheme::Selection GenetScheme::select(
    const TaskAdapter& task, netgym::Policy& current_policy, int round,
    netgym::Rng& rng) {
  return bo_search(task, options_, rng, round, name(),
                   [&](const netgym::Config& config) {
                     return gap_to_baseline(task, current_policy,
                                            baseline_name_, config,
                                            options_.envs_per_eval, rng);
                   });
}

SelfPlayScheme::SelfPlayScheme(SearchOptions options) : options_(options) {}

CurriculumScheme::Selection SelfPlayScheme::select(
    const TaskAdapter& task, netgym::Policy& current_policy, int round,
    netgym::Rng& rng) {
  auto* mlp = dynamic_cast<rl::MlpPolicy*>(&current_policy);
  if (mlp == nullptr) {
    throw std::invalid_argument(
        "SelfPlayScheme: requires an rl::MlpPolicy current policy");
  }
  // Keep the best snapshot seen so far as the frozen reference.
  netgym::ConfigDistribution probe_dist(task.space());
  netgym::Rng probe_rng(rng.engine()());
  const double current_score =
      test_on_distribution(task, current_policy, probe_dist, 20, probe_rng);
  if (reference_params_.empty() || current_score >= reference_score_) {
    reference_params_ = mlp->snapshot();
    reference_score_ = current_score;
  }
  const auto reference = task.make_policy(reference_params_);

  return bo_search(task, options_, rng, round, name(),
                   [&](const netgym::Config& config) {
                     return gap_between(task, current_policy, *reference,
                                        config, options_.envs_per_eval, rng);
                   });
}

void SelfPlayScheme::save_state(netgym::checkpoint::Snapshot& snap,
                                const std::string& prefix) const {
  snap.put_i64(prefix + "has_reference", reference_params_.empty() ? 0 : 1);
  snap.put_doubles(prefix + "reference_params", reference_params_);
  snap.put_double(prefix + "reference_score", reference_score_);
}

void SelfPlayScheme::load_state(const netgym::checkpoint::Snapshot& snap,
                                const std::string& prefix) {
  using netgym::checkpoint::CheckpointError;
  const std::int64_t has_reference = snap.get_i64(prefix + "has_reference");
  const std::vector<double>& params =
      snap.get_doubles(prefix + "reference_params");
  const double score = snap.get_double(prefix + "reference_score");
  if ((has_reference != 0) != !params.empty()) {
    throw CheckpointError(
        "SelfPlayScheme::load_state: has_reference inconsistent with stored "
        "parameters (" + prefix + ")");
  }
  reference_params_ = params;
  reference_score_ = score;
}

EnsembleGenetScheme::EnsembleGenetScheme(
    std::vector<std::string> baseline_names, SearchOptions options)
    : baseline_names_(std::move(baseline_names)), options_(options) {
  if (baseline_names_.empty()) {
    throw std::invalid_argument(
        "EnsembleGenetScheme: need at least one baseline");
  }
}

CurriculumScheme::Selection EnsembleGenetScheme::select(
    const TaskAdapter& task, netgym::Policy& current_policy, int round,
    netgym::Rng& rng) {
  return bo_search(
      task, options_, rng, round, name(), [&](const netgym::Config& config) {
        double max_gap = -1e300;
        for (const std::string& baseline : baseline_names_) {
          max_gap = std::max(
              max_gap, gap_to_baseline(task, current_policy, baseline, config,
                                       options_.envs_per_eval, rng));
        }
        return max_gap;
      });
}

HandcraftedScheme::HandcraftedScheme(std::string dimension, bool hard_is_low,
                                     int total_rounds)
    : dimension_(std::move(dimension)),
      hard_is_low_(hard_is_low),
      total_rounds_(std::max(total_rounds, 1)) {}

CurriculumScheme::Selection HandcraftedScheme::select(const TaskAdapter& task,
                                                      netgym::Policy&,
                                                      int round,
                                                      netgym::Rng&) {
  const netgym::ConfigSpace& space = task.space();
  const std::size_t dim = space.index_of(dimension_);
  // Progress 0 -> 1 over the rounds, from the easy end to the hard end; the
  // final round always lands exactly on the hard end (a one-round schedule
  // goes straight there).
  const double progress =
      total_rounds_ <= 1
          ? 1.0
          : std::clamp(static_cast<double>(round) /
                           static_cast<double>(total_rounds_ - 1),
                       0.0, 1.0);
  // Interpolate in the *normalized* unit cube, not in raw parameter space:
  // denormalize applies each dimension's log scaling and integer rounding, so
  // log-scale dims (e.g. max_bw_mbps, 2-1000) progress uniformly in log space
  // instead of being absurdly front-loaded, and the non-swept dims sit at the
  // true center (0.5) of the normalized box.
  std::vector<double> unit(space.dims(), 0.5);
  unit[dim] = hard_is_low_ ? 1.0 - progress : progress;
  return {space.denormalize(unit), progress};
}

BaselinePerformanceScheme::BaselinePerformanceScheme(std::string baseline_name,
                                                     SearchOptions options)
    : baseline_name_(std::move(baseline_name)), options_(options) {}

CurriculumScheme::Selection BaselinePerformanceScheme::select(
    const TaskAdapter& task, netgym::Policy&, int round, netgym::Rng& rng) {
  return bo_search(
      task, options_, rng, round, name(), [&](const netgym::Config& config) {
        // Maximize the *negated* baseline reward: environments where the rule
        // fares worst are considered hardest.
        double total = 0.0;
        for (int i = 0; i < options_.envs_per_eval; ++i) {
          auto env = task.make_env(config, rng);
          auto baseline = task.make_baseline(baseline_name_, *env);
          total += netgym::run_episode(*env, *baseline, rng).mean_reward;
        }
        return -total / options_.envs_per_eval;
      });
}

GapToOptimumScheme::GapToOptimumScheme(SearchOptions options)
    : options_(options) {}

CurriculumScheme::Selection GapToOptimumScheme::select(
    const TaskAdapter& task, netgym::Policy& current_policy, int round,
    netgym::Rng& rng) {
  return bo_search(task, options_, rng, round, name(),
                   [&](const netgym::Config& config) {
                     return gap_to_optimum(task, current_policy, config,
                                           options_.envs_per_eval, rng);
                   });
}

RobustifyScheme::RobustifyScheme(double rho, SearchOptions options)
    : rho_(rho), options_(options) {}

CurriculumScheme::Selection RobustifyScheme::select(
    const TaskAdapter& task, netgym::Policy& current_policy, int round,
    netgym::Rng& rng) {
  return bo_search(
      task, options_, rng, round, name(), [&](const netgym::Config& config) {
        const double regret = gap_to_optimum(task, current_policy, config,
                                             options_.envs_per_eval, rng);
        return regret - rho_ * task.config_non_smoothness(config, rng);
      });
}

CurriculumTrainer::CurriculumTrainer(const TaskAdapter& task,
                                     std::unique_ptr<CurriculumScheme> scheme,
                                     CurriculumOptions options)
    : task_(task),
      scheme_(std::move(scheme)),
      options_(options),
      trainer_(task.make_trainer(options.seed)),
      dist_(task.space()),
      rng_(options.seed ^ 0xc2b2ae3d27d4eb4fULL) {
  if (scheme_ == nullptr) {
    throw std::invalid_argument("CurriculumTrainer: scheme must not be null");
  }
  if (options_.rounds < 1 || options_.iters_per_round < 1) {
    throw std::invalid_argument("CurriculumTrainer: bad round counts");
  }
}

CurriculumRound CurriculumTrainer::run_round() {
  netgym::tracing::TraceSpan round_span("round", "genet", round_);
  CurriculumRound record;
  record.round = round_;

  // Step 1 (Algorithm 2 line 14): train on the current distribution.
  netgym::tracing::TraceSpan train_span("round.train", "genet", round_);
  const rl::EnvFactory factory = task_.factory_for(dist_);
  double reward_acc = 0.0;
  for (int i = 0; i < options_.iters_per_round; ++i) {
    reward_acc += trainer_->train_iteration(factory).mean_step_reward;
  }
  record.train_reward = reward_acc / options_.iters_per_round;
  train_span.end();

  // Step 2 (lines 5-11): search for the next configuration with the greedy
  // snapshot of the current policy.
  netgym::tracing::TraceSpan select_span("round.select", "genet", round_);
  rl::MlpPolicy& policy = trainer_->policy();
  const bool was_greedy = policy.greedy();
  policy.set_greedy(true);
  const CurriculumScheme::Selection selection =
      scheme_->select(task_, policy, round_, rng_);
  policy.set_greedy(was_greedy);
  select_span.end();
  record.promoted = selection.config;
  record.selection_score = selection.score;

  // Step 3 (line 13): promote the chosen configuration.
  dist_.promote(record.promoted, options_.promote_weight);
  ++round_;

  // Telemetry: one "round" event per curriculum round (the raw material of
  // Fig. 18-style training curves), emitted after all stochastic work so the
  // sink cannot perturb results.
  namespace tel = netgym::telemetry;
  tel::Registry::instance().counter("genet.rounds").add();
  tel::Registry::instance().gauge("genet.train_reward")
      .set(record.train_reward);
  if (tel::logging_enabled()) {
    // param_names gives readers of the JSONL stream the column labels for
    // the promoted/unit/config vectors, comma-joined (one per space dim).
    const netgym::ConfigSpace& space = task_.space();
    std::string param_names;
    for (std::size_t i = 0; i < space.dims(); ++i) {
      if (i > 0) param_names += ",";
      param_names += space.param(i).name;
    }
    tel::log_event("round", record.round,
                   {{"scheme", scheme_->name()},
                    {"train_reward", record.train_reward},
                    {"selection_score", record.selection_score},
                    {"promoted", record.promoted.values},
                    {"param_names", param_names},
                    {"uniform_weight", dist_.uniform_weight()}});
  }
  return record;
}

std::vector<CurriculumRound> CurriculumTrainer::run() {
  std::vector<CurriculumRound> records;
  if (round_ < options_.rounds) {
    records.reserve(static_cast<std::size_t>(options_.rounds - round_));
  }
  // Start from round_, not 0: a freshly constructed trainer runs the full
  // curriculum, a checkpoint-restored one runs exactly the remaining rounds.
  for (int r = round_; r < options_.rounds; ++r) {
    records.push_back(run_round());
  }
  return records;
}

void CurriculumTrainer::save_state(netgym::checkpoint::Snapshot& snap,
                                   const std::string& prefix) const {
  snap.put_string(prefix + "scheme", scheme_->name());
  snap.put_i64(prefix + "round", round_);
  snap.put_string(prefix + "rng", rng_.state());
  dist_.save_state(snap, prefix + "dist/");
  trainer_->save_state(snap, prefix + "trainer/");
  scheme_->save_state(snap, prefix + "scheme_state/");
}

void CurriculumTrainer::load_state(const netgym::checkpoint::Snapshot& snap,
                                   const std::string& prefix) {
  using netgym::checkpoint::CheckpointError;
  // Validation order puts everything fallible before the RL trainer's own
  // (internally transactional) load, so no mismatch can leave the trainer
  // partially updated.
  const std::string& scheme_name = snap.get_string(prefix + "scheme");
  if (scheme_name != scheme_->name()) {
    throw CheckpointError("CurriculumTrainer::load_state: snapshot is for "
                          "scheme '" + scheme_name + "', this trainer runs '" +
                          scheme_->name() + "'");
  }
  const std::int64_t round = snap.get_i64(prefix + "round");
  if (round < 0 || round > options_.rounds) {
    throw CheckpointError(
        "CurriculumTrainer::load_state: round index out of range (" + prefix +
        "round)");
  }
  netgym::Rng rng = rng_;
  try {
    rng.set_state(snap.get_string(prefix + "rng"));
  } catch (const std::invalid_argument& e) {
    throw CheckpointError(std::string("CurriculumTrainer::load_state: ") +
                          e.what() + " (" + prefix + "rng)");
  }
  netgym::ConfigDistribution dist = dist_;
  dist.load_state(snap, prefix + "dist/");
  scheme_->load_state(snap, prefix + "scheme_state/");
  trainer_->load_state(snap, prefix + "trainer/");

  rng_ = rng;
  dist_ = std::move(dist);
  round_ = static_cast<int>(round);
}

void CurriculumTrainer::save_checkpoint(const std::string& path) const {
  netgym::checkpoint::Snapshot snap;
  save_state(snap, "");
  netgym::checkpoint::write_file(snap, path);
}

void CurriculumTrainer::load_checkpoint(const std::string& path) {
  const netgym::checkpoint::Snapshot snap = netgym::checkpoint::read_file(path);
  load_state(snap, "");
}

std::unique_ptr<rl::ActorCriticBase> train_traditional(
    const TaskAdapter& task, int iterations, std::uint64_t seed) {
  netgym::ConfigDistribution dist(task.space());
  return train_traditional(task, dist, iterations, seed);
}

std::unique_ptr<rl::ActorCriticBase> train_traditional(
    const TaskAdapter& task, const netgym::ConfigDistribution& dist,
    int iterations, std::uint64_t seed) {
  if (iterations < 1) {
    throw std::invalid_argument("train_traditional: iterations must be >= 1");
  }
  std::unique_ptr<rl::ActorCriticBase> trainer = task.make_trainer(seed);
  const rl::EnvFactory factory = task.factory_for(dist);
  for (int i = 0; i < iterations; ++i) {
    trainer->train_iteration(factory);
  }
  return trainer;
}

namespace {
TrainModelHook g_train_model_hook;
}  // namespace

void set_train_model_hook(TrainModelHook hook) {
  g_train_model_hook = std::move(hook);
}

bool train_model_hook_installed() {
  return static_cast<bool>(g_train_model_hook);
}

std::vector<std::vector<double>> run_train_model_hook(
    const std::vector<TrainModelRequest>& requests) {
  return g_train_model_hook(requests);
}

std::vector<double> train_model_for_request(const TrainModelRequest& request) {
  const std::unique_ptr<TaskAdapter> task =
      make_adapter_from_spec(request.adapter_spec);
  return train_traditional(*task, request.iterations, request.seed)
      ->policy()
      .snapshot();
}

}  // namespace genet
