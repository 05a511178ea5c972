// genet — command-line frontend for the library.
//
//   genet train  --task abr --method genet --baseline mpc --iters 3000
//                --seed 1 --out policy.ckpt
//   genet eval   --task abr --model policy.ckpt --envs 100
//   genet eval   --task cc  --model policy.ckpt --trace-set cellular
//   genet search --task abr --model policy.ckpt --baseline mpc --trials 15
//   genet trace  --kind abr --duration 200 --out link.trace
//   genet fleet  --task abr --model policy.ckpt --json fleet.json
//
// `train` supports methods rl (traditional, Algorithm 1), genet
// (Algorithm 2), cl1/cl2/cl3 (the alternative curricula of S5.5) and
// ensemble (footnote 6). `eval` reports the greedy policy's mean reward on
// synthetic environments or on one of the built-in trace sets. `search`
// runs one round of the sequencing module and prints every BO trial.
// `train --out` writes a policy checkpoint (serve/policy_store.hpp) that
// `eval`, `search`, `fleet` and `genet_serve` read as it is.
// Each command accepts exactly the flags flag_tables.hpp declares for it;
// `genet <command> --help` lists them.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "flag_tables.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "genet/adapter.hpp"
#include "genet/curriculum.hpp"
#include "netgym/checkpoint.hpp"
#include "netgym/flags.hpp"
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

namespace flags = netgym::flags;

traces::TraceSet trace_set_for(const std::string& name) {
  if (name == "fcc") return traces::TraceSet::kFcc;
  if (name == "norway") return traces::TraceSet::kNorway;
  if (name == "cellular") return traces::TraceSet::kCellular;
  if (name == "ethernet") return traces::TraceSet::kEthernet;
  throw std::logic_error("unhandled trace set " + name);
}

std::unique_ptr<genet::TaskAdapter> adapter_of(const flags::Args& args) {
  return genet::make_adapter(args.text("task"),
                             static_cast<int>(args.integer("space")));
}

/// The policy in --model, a checkpoint written by `genet train --out`. One
/// written for another task fails naming both tasks.
std::unique_ptr<rl::MlpPolicy> model_of(const flags::Args& args,
                                        const genet::TaskAdapter& adapter) {
  const std::string& path = args.text("model");
  const serve::PolicyVersion version = serve::load_policy_checkpoint(path);
  if (!version.task.empty() && version.task != adapter.name()) {
    throw std::invalid_argument(path + ": checkpoint was written for task '" +
                                version.task + "', not '" + adapter.name() +
                                "'");
  }
  return adapter.make_policy(version.params);
}

std::string baseline_of(const flags::Args& args,
                        const genet::TaskAdapter& adapter) {
  return args.has("baseline") ? args.text("baseline")
                              : adapter.baseline_names().front();
}

int cmd_train(const flags::Args& args) {
  auto adapter = adapter_of(args);
  const std::string& method = args.text("method");
  const std::string& out = args.text("out");
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const int iters = static_cast<int>(args.integer("iters"));
  const int rounds = static_cast<int>(args.integer("rounds"));
  const std::string baseline = baseline_of(args, *adapter);

  // Distributed training (DESIGN.md S5i); workers == 0 keeps everything
  // in-process.
  const std::int64_t workers = args.integer("workers");
  std::unique_ptr<dist::Coordinator> coordinator;
  if (workers > 0) {
    dist::Options dopts;
    dopts.workers = static_cast<int>(workers);
    dopts.worker_exe =
        std::filesystem::read_symlink("/proc/self/exe").string();
    dopts.worker_args = {"dist-worker"};
    dopts.timeout_ms = args.integer("dist-timeout-ms");
    dopts.trace_ship_max_bytes = args.integer("trace-ship-max-bytes");
    dopts.kill_worker0_after_sends = static_cast<int>(netgym::env_i64(
        "GENET_DIST_KILL_AFTER_SEND", -1, -1, 1 << 20));
    coordinator = std::make_unique<dist::Coordinator>(dopts);
    coordinator->install_hooks();
    std::printf("distributed: %d workers (per-unit deadline %lld ms)\n",
                coordinator->alive_workers(),
                static_cast<long long>(dopts.timeout_ms));
  }

  const std::string& ckpt_dir = args.text("checkpoint-dir");
  const int ckpt_every = static_cast<int>(args.integer("checkpoint-every"));
  const bool resume = args.on("resume");
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
    search.bo_trials = static_cast<int>(args.integer("trials"));
    search.envs_per_eval = static_cast<int>(args.integer("envs"));
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
      throw std::logic_error("unhandled --method " + method);
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
  const auto parent = std::filesystem::path(out).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  serve::write_policy_checkpoint(*adapter->make_policy(params),
                                 adapter->name(), out);
  std::printf("saved %zu parameters to %s\n", params.size(), out.c_str());
  return 0;
}

int cmd_eval(const flags::Args& args) {
  auto adapter = adapter_of(args);
  const auto policy = model_of(args, *adapter);

  if (args.has("trace-set")) {
    const traces::TraceSet set = trace_set_for(args.text("trace-set"));
    if (!adapter->replays(set)) {
      throw std::invalid_argument("trace set " + traces::info(set).name +
                                  " does not drive task '" + adapter->name() +
                                  "'");
    }
    const bool test = args.text("split") == "test";
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
    const int envs = static_cast<int>(args.integer("envs"));
    netgym::ConfigDistribution dist(adapter->space());
    netgym::Rng rng(77);
    const double reward =
        genet::test_on_distribution(*adapter, *policy, dist, envs, rng);
    std::printf("%d synthetic environments: mean reward %.4f\n", envs,
                reward);
  }
  return 0;
}

int cmd_search(const flags::Args& args) {
  auto adapter = adapter_of(args);
  const std::string baseline = baseline_of(args, *adapter);
  const int trials = static_cast<int>(args.integer("trials"));
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const auto policy = model_of(args, *adapter);

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

int cmd_trace(const flags::Args& args) {
  const std::string& kind = args.text("kind");
  const std::string& out = args.text("out");
  netgym::Rng rng(static_cast<std::uint64_t>(args.integer("seed")));
  const auto real_or = [&](const char* name, double fallback) {
    return args.has(name) ? args.real(name) : fallback;
  };
  netgym::Trace trace;
  if (kind == "abr") {
    netgym::AbrTraceParams params;
    params.duration_s = real_or("duration", 200);
    params.max_bw_mbps = real_or("max-bw", 5);
    params.min_bw_mbps = params.max_bw_mbps * 0.2;
    trace = netgym::generate_abr_trace(params, rng);
  } else if (kind == "cc") {
    netgym::CcTraceParams params;
    params.duration_s = real_or("duration", 30);
    params.max_bw_mbps = real_or("max-bw", 3.16);
    trace = netgym::generate_cc_trace(params, rng);
  } else {
    const traces::TraceSet set = trace_set_for(kind);
    trace = traces::make_trace(set, /*test=*/false,
                               static_cast<int>(args.integer("index")));
  }
  netgym::save_trace(trace, out);
  std::printf("wrote %zu samples (%.1f s, mean %.2f Mbps) to %s\n",
              trace.size(), trace.duration_s(), trace.mean_bandwidth(),
              out.c_str());
  return 0;
}

int cmd_fleet(const flags::Args& args) {
  const std::string& task = args.text("task");
  const auto adapter = genet::make_adapter(task, 1);
  const auto policy = model_of(args, *adapter);

  fleet::FleetOptions fopts;
  fopts.seed = static_cast<std::uint64_t>(args.integer("seed"));
  fopts.shards = static_cast<int>(args.integer("shards"));
  fopts.worst_k = static_cast<int>(args.integer("worst-k"));
  fopts.out_dir = args.text("out-dir");

  const auto scenarios = fleet::default_scenarios(
      task, args.integer("sessions"), args.real("trace-prob"));
  const fleet::FleetResult result =
      fleet::run_fleet(*policy, scenarios, fopts);
  std::fputs(fleet::format_fleet_summary(result).c_str(), stdout);

  if (args.has("json")) {
    fleet::write_fleet_json(args.text("json"), result);
    std::printf("wrote %s\n", args.text("json").c_str());
  }
  if (args.has("digest")) {
    netgym::write_file_bytes(args.text("digest"),
                             fleet::canonical_digest(result));
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
  return args.on("slo-strict") && failed_slos > 0 ? 1 : 0;
}

struct Command {
  const char* name;
  const char* span;  ///< a literal: the trace ring stores only the pointer
  std::span<const flags::Flag> flags;
  int (*run)(const flags::Args&);
};

constexpr Command kCommands[] = {
    {"train", "cmd.train", flags::tables::kTrain, cmd_train},
    {"eval", "cmd.eval", flags::tables::kEval, cmd_eval},
    {"search", "cmd.search", flags::tables::kSearch, cmd_search},
    {"trace", "cmd.trace", flags::tables::kTrace, cmd_trace},
    {"fleet", "cmd.fleet", flags::tables::kFleet, cmd_fleet},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc < 2 ? "" : argv[1];
  const std::string program = "genet " + command;
  const Command* entry = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const Command& c) { return c.name == command; });
  if (entry == std::end(kCommands) && command != "dist-worker") {
    std::string names;
    for (const Command& c : kCommands) {
      names += names.empty() ? c.name : std::string("|") + c.name;
    }
    if (command != "--help") {
      flags::fail("genet " + names, argc < 2 ? "missing command"
                                             : "unknown command " + command);
    }
    std::printf("usage: genet %s [flags]; 'genet <command> --help' lists "
                "its flags\n", names.c_str());
    return 0;
  }
  try {
    // Hidden subcommand: the coordinator re-execs this binary as a worker
    // with its socketpair fd. Handled before any env-driven telemetry/thread
    // setup so inherited GENET_LOG / GENET_THREADS cannot make a worker
    // clobber the coordinator's log or oversubscribe the host; its math mode
    // and thread count come from the coordinator's hello frame instead.
    if (entry == std::end(kCommands)) {
      return dist::worker_main(static_cast<int>(
          flags::parse_or_exit({flags::tables::kDistWorker}, program, argc,
                               argv, 2)
              .integer("dist-fd")));
    }
    const flags::Args args = flags::parse_or_exit(
        {entry->flags, flags::tables::kCliShared, netgym::obs::kFlags},
        program, argc, argv, 2);
    if (args.has("threads")) {
      netgym::set_num_threads(static_cast<int>(args.integer("threads")));
    }
    if (args.has("math")) {
      nn::set_math_mode(nn::parse_math_mode(args.text("math")));
    }
    netgym::obs::Session session(netgym::obs::parse(args));
    if (netgym::telemetry::logging_enabled()) {
      std::vector<netgym::telemetry::Field> fields;
      fields.emplace_back("command", command);
      for (const auto& [key, value] : args.given()) {
        fields.emplace_back(key, value);
      }
      netgym::telemetry::log_event("run_start", 0, fields);
    }
    int rc = 0;
    {
      netgym::tracing::TraceSpan span(entry->span, "cli");
      rc = entry->run(args);
    }
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
    netgym::flush_stdout();
    return rc;
  } catch (const flags::Error& e) {
    flags::fail(program, e.what());  // a required flag is missing
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
