// genet — command-line frontend for the library.
//
//   genet train  --task abr --method genet --baseline mpc --iters 3000
//                --seed 1 --out policy.model
//   genet eval   --task abr --model policy.model --envs 100
//   genet eval   --task cc  --model policy.model --trace-set cellular
//   genet search --task abr --model policy.model --baseline mpc --trials 15
//   genet trace  --kind abr --duration 200 --out link.trace
//   genet export --task abr --model policy.model --out policy.ckpt
//
// `train` supports methods rl (traditional, Algorithm 1), genet
// (Algorithm 2), cl1/cl2/cl3 (the alternative curricula of S5.5) and
// ensemble (footnote 6). `eval` reports the greedy policy's mean reward on
// synthetic environments or on one of the built-in trace sets. `search`
// runs one round of the sequencing module and prints every BO trial.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <fstream>

#include <filesystem>

#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "genet/adapter.hpp"
#include "genet/curriculum.hpp"
#include "genet/zoo.hpp"
#include "netgym/checkpoint.hpp"
#include "netgym/obs.hpp"
#include "netgym/parallel.hpp"
#include "netgym/parse.hpp"
#include "netgym/stats.hpp"
#include "netgym/telemetry.hpp"
#include "netgym/trace.hpp"
#include "netgym/tracing.hpp"
#include "nn/gemm.hpp"
#include "serve/policy_store.hpp"
#include "traces/tracesets.hpp"

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(usage: genet <command> [options]

commands:
  train   --task abr|cc|lb [--space 1|2|3] [--method rl|genet|cl1|cl2|cl3|ensemble]
          [--baseline NAME] [--iters N] [--rounds N] [--trials N] [--envs N]
          [--seed N] --out FILE
          [--workers N] [--dist-timeout-ms MS]
            distributed curriculum training (DESIGN.md S5i): with
            --workers N >= 1 (default: the GENET_WORKERS env var, else 0 =
            in-process), curriculum gap evaluations and model-zoo trainings
            are sharded across N forked worker processes. Results are
            bit-identical to --workers 0 at any worker count, including
            across worker crashes (dead workers' work is reassigned).
            --dist-timeout-ms (env: GENET_DIST_TIMEOUT_MS, default 120000)
            is the per-work-unit deadline before a worker is declared dead.
          [--trace-ship-max-bytes N]
            cap on the span batch a worker piggybacks on one result frame
            when tracing is enabled (env: GENET_TRACE_SHIP_MAX_BYTES,
            default 1048576, range 4096..8388608); a worker drops its
            oldest spans (counted) rather than exceed it.
          [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
            crash-safe snapshots: with --checkpoint-dir (default: the
            GENET_CHECKPOINT_DIR env var), training writes DIR/latest.ckpt
            after every N curriculum rounds (method rl: every N iterations;
            default 1). --resume restarts from DIR/latest.ckpt when present;
            the resumed run is bit-identical to an uninterrupted one.
  eval    --task abr|cc|lb [--space 1|2|3] --model FILE
          [--envs N | --trace-set fcc|norway|cellular|ethernet [--split train|test]]
  search  --task abr|cc|lb [--space 1|2|3] --model FILE [--baseline NAME]
          [--trials N] [--seed N]
  trace   --kind abr|cc|fcc|norway|cellular|ethernet [--duration S]
          [--max-bw MBPS] [--index N] --out FILE
  export  --task abr|cc|lb --model FILE --out FILE.ckpt
            convert a trained text model into the binary serve checkpoint
            (CRC-framed, exact parameter bit patterns) that genet_serve
            loads and hot-swaps; see DESIGN.md S5g.
  fleet   --task abr|cc|lb (--model FILE | --checkpoint FILE.ckpt)
          [--sessions N] [--trace-prob P] [--seed N] [--shards N]
          [--worst-k N] [--out-dir DIR] [--json FILE] [--digest FILE]
          [--slo-strict]
            replay the policy over N heterogeneous sessions (default
            100000) split across the task's default scenario mix (synthetic
            + recorded-trace scenarios, device diversity, online SLOs),
            streaming population percentiles through merged histograms;
            see DESIGN.md S5h. --trace-prob (default 0.5, also the
            GENET_FLEET_TRACE_PROB env var) sets the recorded-trace share
            of trace-backed scenarios. --out-dir enables per-scenario
            worst-k flight dumps; --json writes the fleet JSON report
            (render with scripts/slo_report.py); --digest writes the
            canonical determinism digest (byte-identical at any thread
            count); --slo-strict exits nonzero when any SLO fails.

every command also accepts:
  --threads N     worker threads for rollouts and evaluations (default: the
                  GENET_THREADS env var, else all hardware threads; results
                  are identical at any thread count)
  --math MODE     floating-point mode for the batched MLP kernels: 'strict'
                  (default; bit-identical to per-sample math at any batch
                  size or thread count) or 'fast' (AVX2/FMA kernels when the
                  CPU has them; same answers to ~1 ulp per multiply-add but
                  not bit-identical, and batch-size-dependent). Defaults to
                  the GENET_MATH env var when set.
)");
  std::fputs(netgym::obs::kUsage, stderr);
  std::exit(2);
}

using Options = std::map<std::string, std::string>;

Options parse(int argc, char** argv, int first) {
  Options options;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) usage("expected --option");
    const std::string key = argv[i] + 2;
    if (key == "resume" || key == "slo-strict" ||
        netgym::obs::is_switch(key)) {
      options[key] = "1";  // boolean flags: take no value
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for --" + key).c_str());
    options[key] = argv[++i];
  }
  return options;
}

std::string get(const Options& options, const std::string& key,
                const std::string& fallback) {
  const auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

std::string require(const Options& options, const std::string& key) {
  const auto it = options.find(key);
  if (it == options.end()) usage(("--" + key + " is required").c_str());
  return it->second;
}

// Validated numeric option parsing: every numeric flag goes through these, so
// `--iters 3x0` fails with a clear message instead of an uncaught
// std::invalid_argument from a raw std::stoi (and trailing garbage is an
// error instead of being silently ignored), and a value outside [lo, hi]
// fails instead of being narrowed.

long long parse_integer(
    const std::string& flag, const std::string& value,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  std::int64_t result = 0;
  if (!netgym::parse_i64(value, result)) {
    throw std::invalid_argument("--" + flag + " expects an integer, got '" +
                                value + "'");
  }
  return netgym::parse_i64_in_range(("--" + flag).c_str(), value, lo, hi);
}

double parse_number(const std::string& flag, const std::string& value) {
  double result = 0.0;
  if (!netgym::parse_f64(value, result)) {
    throw std::invalid_argument("--" + flag + " expects a number, got '" +
                                value + "'");
  }
  return result;
}

int get_int(const Options& options, const std::string& key, int fallback) {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  return static_cast<int>(parse_integer(key, it->second,
                                        std::numeric_limits<int>::min(),
                                        std::numeric_limits<int>::max()));
}

std::uint64_t get_seed(const Options& options) {
  const auto it = options.find("seed");
  if (it == options.end()) return 1;
  const long long seed = parse_integer("seed", it->second);
  if (seed < 0) {
    throw std::invalid_argument("--seed expects a non-negative integer, got '" +
                                it->second + "'");
  }
  return static_cast<std::uint64_t>(seed);
}

double get_double(const Options& options, const std::string& key,
                  double fallback) {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  return parse_number(key, it->second);
}

traces::TraceSet trace_set_for(const std::string& name) {
  if (name == "fcc") return traces::TraceSet::kFcc;
  if (name == "norway") return traces::TraceSet::kNorway;
  if (name == "cellular") return traces::TraceSet::kCellular;
  if (name == "ethernet") return traces::TraceSet::kEthernet;
  usage("unknown trace set (want fcc|norway|cellular|ethernet)");
}

/// Directory for crash-safe training snapshots: --checkpoint-dir, else the
/// GENET_CHECKPOINT_DIR env var, else empty (checkpointing disabled).
std::string checkpoint_dir_of(const Options& options) {
  const auto it = options.find("checkpoint-dir");
  if (it != options.end()) return it->second;
  const char* env = std::getenv("GENET_CHECKPOINT_DIR");
  return env != nullptr ? env : "";
}

int cmd_train(const Options& options) {
  auto adapter = genet::make_adapter(require(options, "task"),
                                     get_int(options, "space", 3));
  const std::string method = get(options, "method", "genet");
  const std::string out = require(options, "out");
  const std::uint64_t seed = get_seed(options);
  const int iters = get_int(options, "iters", 900);
  const int rounds = get_int(options, "rounds", 9);
  const std::string baseline =
      get(options, "baseline", adapter->baseline_names().front());

  // Distributed training (DESIGN.md S5i): env var configures jobs globally,
  // the flag overrides per run, garbage in either fails loudly naming the
  // knob (pinned by ctest). workers == 0 keeps everything in-process.
  long long workers = netgym::env_i64("GENET_WORKERS", 0, 0, 1024);
  if (options.count("workers") != 0U) {
    workers = netgym::parse_i64_in_range("--workers", options.at("workers"),
                                         0, 1024);
  }
  std::int64_t dist_timeout_ms =
      netgym::env_i64("GENET_DIST_TIMEOUT_MS", 120000, 1, 86400000);
  if (options.count("dist-timeout-ms") != 0U) {
    dist_timeout_ms = netgym::parse_i64_in_range(
        "--dist-timeout-ms", options.at("dist-timeout-ms"), 1, 86400000);
  }
  std::int64_t trace_ship_max_bytes = netgym::env_i64(
      "GENET_TRACE_SHIP_MAX_BYTES", 1 << 20, 4096, 8 << 20);
  if (options.count("trace-ship-max-bytes") != 0U) {
    trace_ship_max_bytes = netgym::parse_i64_in_range(
        "--trace-ship-max-bytes", options.at("trace-ship-max-bytes"), 4096,
        8 << 20);
  }
  std::unique_ptr<dist::Coordinator> coordinator;
  if (workers > 0) {
    dist::Options dopts;
    dopts.workers = static_cast<int>(workers);
    dopts.worker_exe =
        std::filesystem::read_symlink("/proc/self/exe").string();
    dopts.worker_args = {"dist-worker"};
    dopts.timeout_ms = dist_timeout_ms;
    dopts.trace_ship_max_bytes = trace_ship_max_bytes;
    dopts.kill_worker0_after_sends = static_cast<int>(netgym::env_i64(
        "GENET_DIST_KILL_AFTER_SEND", -1, -1, 1 << 20));
    coordinator = std::make_unique<dist::Coordinator>(dopts);
    coordinator->install_hooks();
    std::printf("distributed: %d workers (per-unit deadline %lld ms)\n",
                coordinator->alive_workers(),
                static_cast<long long>(dist_timeout_ms));
  }

  const std::string ckpt_dir = checkpoint_dir_of(options);
  const int ckpt_every = get_int(options, "checkpoint-every", 1);
  const bool resume = options.count("resume") != 0U;
  if (ckpt_every < 1) {
    throw std::invalid_argument("--checkpoint-every must be >= 1");
  }
  if (resume && ckpt_dir.empty()) {
    throw std::invalid_argument(
        "--resume needs --checkpoint-dir (or GENET_CHECKPOINT_DIR)");
  }
  std::string ckpt_path;
  if (!ckpt_dir.empty()) {
    std::filesystem::create_directories(ckpt_dir);
    ckpt_path = (std::filesystem::path(ckpt_dir) / "latest.ckpt").string();
  }

  std::vector<double> params;
  if (method == "rl") {
    std::printf("traditional training: %d iterations (seed %llu)\n", iters,
                static_cast<unsigned long long>(seed));
    if (ckpt_path.empty()) {
      params = genet::train_traditional(*adapter, iters, seed)->snapshot();
    } else {
      if (iters < 1) {
        throw std::invalid_argument("--iters must be >= 1");
      }
      std::unique_ptr<rl::ActorCriticBase> trainer =
          adapter->make_trainer(seed);
      if (resume && std::filesystem::exists(ckpt_path)) {
        trainer->load_state(netgym::checkpoint::read_file(ckpt_path),
                            "trainer/");
        std::printf("resumed from %s at iteration %ld\n", ckpt_path.c_str(),
                    trainer->iterations());
      }
      netgym::ConfigDistribution dist(adapter->space());
      const rl::EnvFactory factory = adapter->factory_for(dist);
      for (long i = trainer->iterations(); i < iters; ++i) {
        trainer->train_iteration(factory);
        if ((i + 1) % ckpt_every == 0 || i + 1 == iters) {
          netgym::checkpoint::Snapshot snap;
          trainer->save_state(snap, "trainer/");
          netgym::checkpoint::write_file(snap, ckpt_path);
        }
      }
      params = trainer->snapshot();
    }
  } else {
    genet::SearchOptions search;
    search.bo_trials = get_int(options, "trials", search.bo_trials);
    search.envs_per_eval = get_int(options, "envs", search.envs_per_eval);
    genet::CurriculumOptions copt;
    copt.rounds = rounds;
    copt.iters_per_round = std::max(iters / rounds, 1);
    copt.seed = seed;
    std::unique_ptr<genet::CurriculumScheme> scheme;
    if (method == "genet") {
      scheme = std::make_unique<genet::GenetScheme>(baseline, search);
    } else if (method == "ensemble") {
      scheme = std::make_unique<genet::EnsembleGenetScheme>(
          adapter->baseline_names(), search);
    } else if (method == "cl1") {
      const std::string dim =
          adapter->name() == "lb" ? "queue_shuffle_prob"
                                  : "bw_change_interval_s";
      scheme = std::make_unique<genet::HandcraftedScheme>(
          dim, /*hard_is_low=*/adapter->name() != "lb", rounds);
    } else if (method == "cl2") {
      scheme =
          std::make_unique<genet::BaselinePerformanceScheme>(baseline, search);
    } else if (method == "cl3") {
      scheme = std::make_unique<genet::GapToOptimumScheme>(search);
    } else {
      usage("unknown --method");
    }
    std::printf("%s curriculum: %d rounds x %d iterations (seed %llu)\n",
                method.c_str(), copt.rounds, copt.iters_per_round,
                static_cast<unsigned long long>(seed));
    genet::CurriculumTrainer trainer(*adapter, std::move(scheme), copt);
    if (resume && std::filesystem::exists(ckpt_path)) {
      trainer.load_checkpoint(ckpt_path);
      std::printf("resumed from %s at round %d\n", ckpt_path.c_str(),
                  trainer.rounds_completed());
    }
    for (int r = trainer.rounds_completed(); r < copt.rounds; ++r) {
      const genet::CurriculumRound round = trainer.run_round();
      std::printf("  round %d: train reward %.3f, selection score %.3f\n",
                  round.round, round.train_reward, round.selection_score);
      if (!ckpt_path.empty() &&
          ((r + 1) % ckpt_every == 0 || r + 1 == copt.rounds)) {
        trainer.save_checkpoint(ckpt_path);
      }
    }
    params = trainer.trainer().snapshot();
  }

  if (coordinator != nullptr && coordinator->reassignments() > 0) {
    std::printf("distributed: %lld work unit(s) reassigned after worker "
                "death\n",
                static_cast<long long>(coordinator->reassignments()));
  }
  genet::save_params(out, params);
  std::printf("saved %zu parameters to %s\n", params.size(), out.c_str());
  return 0;
}

int cmd_eval(const Options& options) {
  auto adapter = genet::make_adapter(require(options, "task"),
                                     get_int(options, "space", 3));
  const auto policy = adapter->make_policy(
      genet::load_params(require(options, "model")));

  if (options.count("trace-set") != 0U) {
    const traces::TraceSet set = trace_set_for(require(options, "trace-set"));
    if (!adapter->replays(set)) {
      throw std::invalid_argument("trace set " + traces::info(set).name +
                                  " does not drive task '" + adapter->name() +
                                  "'");
    }
    const std::string split = get(options, "split", "test");
    if (split != "train" && split != "test") {
      usage("--split expects train or test");
    }
    const bool test = split == "test";
    const auto corpus = traces::make_corpus(set, test);
    netgym::Rng rng(9);
    const auto rewards =
        genet::test_per_trace(*adapter, *policy, corpus, rng);
    std::printf("%zu traces from %s (%s split): mean reward %.4f "
                "(min %.4f, median %.4f, max %.4f)\n",
                corpus.size(), traces::info(set).name.c_str(),
                test ? "test" : "train", netgym::mean(rewards),
                netgym::min_of(rewards), netgym::median(rewards),
                netgym::max_of(rewards));
  } else {
    const int envs = get_int(options, "envs", 100);
    netgym::ConfigDistribution dist(adapter->space());
    netgym::Rng rng(77);
    const double reward =
        genet::test_on_distribution(*adapter, *policy, dist, envs, rng);
    std::printf("%d synthetic environments: mean reward %.4f\n", envs,
                reward);
  }
  return 0;
}

int cmd_search(const Options& options) {
  auto adapter = genet::make_adapter(require(options, "task"),
                                     get_int(options, "space", 3));
  const std::string model = require(options, "model");
  const std::string baseline =
      get(options, "baseline", adapter->baseline_names().front());
  const int trials = get_int(options, "trials", 15);
  const std::uint64_t seed = get_seed(options);
  const auto policy = adapter->make_policy(genet::load_params(model));

  genet::SearchOptions search;
  search.bo_trials = trials;
  genet::GenetScheme scheme(baseline, search);
  netgym::Rng rng(seed);
  const auto selection = scheme.select(*adapter, *policy, 0, rng);
  std::printf("best gap-to-%s after %d BO trials: %.4f at\n",
              baseline.c_str(), trials, selection.score);
  const netgym::ConfigSpace& space = adapter->space();
  for (std::size_t d = 0; d < space.dims(); ++d) {
    std::printf("  %-24s = %.5g\n", space.param(d).name.c_str(),
                selection.config.values[d]);
  }
  return 0;
}

int cmd_trace(const Options& options) {
  const std::string kind = require(options, "kind");
  const std::string out = require(options, "out");
  netgym::Rng rng(get_seed(options));
  netgym::Trace trace;
  if (kind == "abr") {
    netgym::AbrTraceParams params;
    params.duration_s = get_double(options, "duration", 200);
    params.max_bw_mbps = get_double(options, "max-bw", 5);
    params.min_bw_mbps = params.max_bw_mbps * 0.2;
    trace = netgym::generate_abr_trace(params, rng);
  } else if (kind == "cc") {
    netgym::CcTraceParams params;
    params.duration_s = get_double(options, "duration", 30);
    params.max_bw_mbps = get_double(options, "max-bw", 3.16);
    trace = netgym::generate_cc_trace(params, rng);
  } else {
    const traces::TraceSet set = trace_set_for(kind);
    trace = traces::make_trace(set, /*test=*/false,
                               get_int(options, "index", 0));
  }
  netgym::save_trace(trace, out);
  std::printf("wrote %zu samples (%.1f s, mean %.2f Mbps) to %s\n",
              trace.size(), trace.duration_s(), trace.mean_bandwidth(),
              out.c_str());
  return 0;
}

int cmd_export(const Options& options) {
  auto adapter = genet::make_adapter(require(options, "task"),
                                     get_int(options, "space", 3));
  const std::string model = require(options, "model");
  const std::string out = require(options, "out");
  const auto parent = std::filesystem::path(out).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  const auto policy = adapter->make_policy(genet::load_params(model));
  serve::write_policy_checkpoint(*policy, adapter->name(), out);
  std::printf("exported %s policy (%zu parameters) to %s\n",
              adapter->name().c_str(), policy->snapshot().size(), out.c_str());
  return 0;
}

int cmd_fleet(const Options& options) {
  const std::string task = require(options, "task");
  // Validates the task name before heavy setup.
  const auto adapter = genet::make_adapter(task, 1);

  std::unique_ptr<rl::MlpPolicy> policy;
  if (options.count("checkpoint") != 0U) {
    const serve::PolicyVersion version =
        serve::load_policy_checkpoint(options.at("checkpoint"));
    if (!version.task.empty() && version.task != task) {
      throw std::invalid_argument("checkpoint was exported for task '" +
                                  version.task + "', not '" + task + "'");
    }
    policy = version.instantiate();
  } else {
    policy =
        adapter->make_policy(genet::load_params(require(options, "model")));
  }
  policy->set_greedy(true);

  const long long sessions =
      options.count("sessions") != 0U
          ? parse_integer("sessions", options.at("sessions"))
          : 100000;
  // Float knob with the strict-parse contract: the env var configures fleet
  // jobs globally, the flag overrides per run; garbage in either fails
  // loudly naming the knob (pinned by ctest).
  double trace_prob = netgym::env_f64("GENET_FLEET_TRACE_PROB", 0.5, 0.0, 1.0);
  if (options.count("trace-prob") != 0U) {
    trace_prob = netgym::parse_f64_in_range("--trace-prob",
                                            options.at("trace-prob"), 0.0, 1.0);
  }

  fleet::FleetOptions fopts;
  fopts.seed = get_seed(options);
  fopts.shards = get_int(options, "shards", 256);
  fopts.worst_k = get_int(options, "worst-k", 8);
  fopts.out_dir = get(options, "out-dir", "");

  const auto scenarios = fleet::default_scenarios(task, sessions, trace_prob);
  const fleet::FleetResult result =
      fleet::run_fleet(*policy, scenarios, fopts);
  std::fputs(fleet::format_fleet_summary(result).c_str(), stdout);

  if (options.count("json") != 0U) {
    fleet::write_fleet_json(options.at("json"), result);
    std::printf("wrote %s\n", options.at("json").c_str());
  }
  if (options.count("digest") != 0U) {
    const std::string& path = options.at("digest");
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << fleet::canonical_digest(result);
  }
  int failed_slos = 0;
  for (const auto& sc : result.scenarios) {
    for (const auto& slo : sc.slos) {
      if (!slo.pass) ++failed_slos;
    }
  }
  if (failed_slos > 0) {
    std::printf("%d SLO(s) failing\n", failed_slos);
  }
  return options.count("slo-strict") != 0U && failed_slos > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const Options options = parse(argc, argv, 2);
  // Hidden subcommand: the coordinator re-execs this binary as a worker with
  // its socketpair fd. Handled before any env-driven telemetry/thread setup
  // so inherited GENET_LOG / GENET_THREADS cannot make a worker clobber the
  // coordinator's log file or oversubscribe the host; the worker's math mode
  // and thread count come from the coordinator's hello frame instead.
  if (command == "dist-worker") {
    try {
      const int fd = static_cast<int>(netgym::parse_i64_in_range(
          "--dist-fd", require(options, "dist-fd"), 0, 1 << 20));
      return dist::worker_main(fd);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  try {
    if (options.count("threads") != 0U) {
      netgym::set_num_threads(get_int(options, "threads", 0));
    }
    if (options.count("math") != 0U) {
      try {
        nn::set_math_mode(nn::parse_math_mode(options.at("math")));
      } catch (const std::invalid_argument&) {
        usage("--math expects strict or fast");
      }
    }
    netgym::obs::Session session(netgym::obs::parse(options));
    if (netgym::telemetry::logging_enabled()) {
      std::vector<netgym::telemetry::Field> fields;
      fields.emplace_back("command", command);
      for (const auto& [key, value] : options) fields.emplace_back(key, value);
      netgym::telemetry::log_event("run_start", 0, fields);
    }
    int rc = -1;
    {
      // Span names are literals: the trace ring stores only the pointers.
      const char* span_name = command == "train"    ? "cmd.train"
                              : command == "eval"   ? "cmd.eval"
                              : command == "search" ? "cmd.search"
                              : command == "trace"  ? "cmd.trace"
                              : command == "export" ? "cmd.export"
                              : command == "fleet"  ? "cmd.fleet"
                                                    : "cmd";
      netgym::tracing::TraceSpan span(span_name, "cli");
      if (command == "train") rc = cmd_train(options);
      else if (command == "eval") rc = cmd_eval(options);
      else if (command == "search") rc = cmd_search(options);
      else if (command == "trace") rc = cmd_trace(options);
      else if (command == "export") rc = cmd_export(options);
      else if (command == "fleet") rc = cmd_fleet(options);
    }
    if (rc >= 0) {
      if (netgym::telemetry::logging_enabled()) {
        // Close the trajectory with the final metric totals (env steps,
        // episodes, rollout/update wall clock, histogram percentiles, ...).
        auto fields = netgym::telemetry::snapshot_fields(
            netgym::telemetry::Registry::instance().snapshot());
        fields.emplace(fields.begin(), "exit_code",
                       static_cast<std::int64_t>(rc));
        netgym::telemetry::log_event("run_end", 0, fields);
      }
      session.close();
      return rc;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage("unknown command");
}
