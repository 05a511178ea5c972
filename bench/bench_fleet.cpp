// Fleet-scale evaluation harness (DESIGN.md S5h): replays one policy per
// task (abr, cc, lb) over >= 1e6 heterogeneous sessions total -- mixed
// synthetic/recorded-trace scenarios, sampled config distributions, device
// skew -- streaming population percentiles through shard-merged histograms
// (no per-episode storage) and scoring online SLOs.
//
// Policies default to fixed-seed random inits so the committed
// BENCH_fleet.json regenerates from the binary alone; pass --model-abr /
// --model-cc / --model-lb to score trained model files instead.
//
// Unless --no-determinism, the run opens with a re-assertion of the fleet
// determinism contract: a reduced fleet is run twice, pinned to 1 and then 4
// pool threads, and the two canonical_digest() serializations (every
// deterministic output field, %.17g doubles) are compared byte-for-byte.
// Exit is nonzero on any mismatch; the result lands in the JSON
// "determinism" block that scripts/check_bench_json.py enforces.
//
// Writes BENCH_fleet.json (schema checked by scripts/check_bench_json.py,
// rendered to markdown by scripts/slo_report.py).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "genet/zoo.hpp"
#include "netgym/parallel.hpp"
#include "netgym/parse.hpp"
#include "netgym/rng.hpp"
#include "rl/policy.hpp"
#include "rl/trainer.hpp"

namespace {

constexpr const char* kTasks[] = {"abr", "cc", "lb"};
// Session share per task; cc steps are the most expensive, so it gets a
// slightly smaller slice of the total.
constexpr double kShare[] = {0.35, 0.30, 0.35};

struct Config {
  bool quick = false;
  std::string out = "BENCH_fleet.json";
  std::int64_t sessions = 1'000'000;  // total across all three tasks
  std::uint64_t seed = 1;
  int shards = 256;
  int worst_k = 8;
  std::string out_dir = "fleet_out";
  double trace_prob = 0.5;
  bool determinism = true;
  std::int64_t det_sessions = 1500;  // per task, for the re-assertion
  int det_threads_a = 1;
  int det_threads_b = 4;
  std::map<std::string, std::string> models;  // task -> model file
};

[[noreturn]] void usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(usage: bench_fleet [options]
  --quick               small run for CI (1e4 sessions, reduced det check)
  --out FILE            JSON report path (default BENCH_fleet.json)
  --sessions N          total sessions across abr+cc+lb (default 1000000)
  --seed N              fleet seed (default 1)
  --shards N            fixed shard count, determinism contract (default 256)
  --worst-k N           flight-recorded worst sessions/scenario (default 8)
  --out-dir DIR         worst-k JSONL directory (default fleet_out)
  --trace-prob P        recorded-trace share of trace scenarios, in [0,1]
                        (default GENET_FLEET_TRACE_PROB or 0.5)
  --model-abr FILE      trained model instead of the fixed random init
  --model-cc FILE       (same for cc)
  --model-lb FILE       (same for lb)
  --no-determinism      skip the 1-vs-4-thread digest re-assertion
)");
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  cfg.trace_prob = netgym::env_f64("GENET_FLEET_TRACE_PROB", 0.5, 0.0, 1.0);
  const auto value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) usage(("missing value for " + std::string(flag)).c_str());
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") cfg.quick = true;
    else if (a == "--out") cfg.out = value(i, "--out");
    else if (a == "--sessions")
      cfg.sessions = netgym::parse_i64_in_range("--sessions", value(i, "--sessions"),
                                                3, 1'000'000'000);
    else if (a == "--seed")
      cfg.seed = static_cast<std::uint64_t>(
          netgym::parse_i64_in_range("--seed", value(i, "--seed"), 0,
                                     std::numeric_limits<std::int64_t>::max()));
    else if (a == "--shards")
      cfg.shards = static_cast<int>(
          netgym::parse_i64_in_range("--shards", value(i, "--shards"), 1, 65536));
    else if (a == "--worst-k")
      cfg.worst_k = static_cast<int>(
          netgym::parse_i64_in_range("--worst-k", value(i, "--worst-k"), 0, 1024));
    else if (a == "--out-dir") cfg.out_dir = value(i, "--out-dir");
    else if (a == "--trace-prob")
      cfg.trace_prob = netgym::parse_f64_in_range(
          "--trace-prob", value(i, "--trace-prob"), 0.0, 1.0);
    else if (a == "--model-abr") cfg.models["abr"] = value(i, "--model-abr");
    else if (a == "--model-cc") cfg.models["cc"] = value(i, "--model-cc");
    else if (a == "--model-lb") cfg.models["lb"] = value(i, "--model-lb");
    else if (a == "--no-determinism") cfg.determinism = false;
    else usage(("unknown option " + a).c_str());
  }
  if (cfg.quick) {
    cfg.sessions = std::min<std::int64_t>(cfg.sessions, 10'000);
    cfg.det_sessions = 600;
  }
  return cfg;
}

/// The policy scored for `task`: a trained model file when one was given,
/// else a random init forked deterministically from the bench seed (so the
/// committed report regenerates without any model artifacts).
rl::MlpPolicy make_policy(const Config& cfg, const std::string& task,
                          int task_index) {
  rl::TrainerOptions defaults;
  netgym::Rng init(cfg.seed * 1000 + static_cast<std::uint64_t>(task_index));
  rl::MlpPolicy policy(fleet::task_obs_size(task),
                       fleet::task_action_count(task), defaults.hidden, init);
  const auto it = cfg.models.find(task);
  if (it != cfg.models.end()) {
    policy.restore(genet::load_params(it->second));
  }
  policy.set_greedy(true);
  return policy;
}

/// Run every task's default scenario mix and merge into one FleetResult
/// (scenario list concatenated in task order, totals summed).
fleet::FleetResult run_all_tasks(const Config& cfg, std::int64_t total_sessions,
                                 const std::string& out_dir) {
  fleet::FleetResult merged;
  merged.seed = cfg.seed;
  merged.shards = cfg.shards;
  merged.worst_k = cfg.worst_k;
  merged.threads = netgym::num_threads();
  for (int t = 0; t < 3; ++t) {
    const std::string task = kTasks[t];
    const std::int64_t task_sessions = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<double>(total_sessions) *
                                     kShare[t]));
    const rl::MlpPolicy policy = make_policy(cfg, task, t);
    fleet::FleetOptions fopts;
    fopts.seed = cfg.seed;
    fopts.shards = cfg.shards;
    fopts.worst_k = cfg.worst_k;
    fopts.out_dir = out_dir;
    const fleet::FleetResult r = fleet::run_fleet(
        policy, fleet::default_scenarios(task, task_sessions, cfg.trace_prob),
        fopts);
    merged.sessions += r.sessions;
    merged.steps += r.steps;
    merged.duration_s += r.duration_s;
    for (const auto& sc : r.scenarios) merged.scenarios.push_back(sc);
  }
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = parse_args(argc, argv);
    fleet::BenchInfo info;
    info.quick = cfg.quick;
    info.det_threads_a = cfg.det_threads_a;
    info.det_threads_b = cfg.det_threads_b;

    // Determinism re-assertion first: the same reduced fleet at two thread
    // counts must serialize to byte-identical canonical digests. Flight
    // capture is disabled here (out_dir "") so the check never clobbers the
    // main run's worst-k files; the CI smoke job separately pins the
    // full-pipeline digest through `genet fleet --digest`.
    if (cfg.determinism) {
      info.determinism_checked = true;
      Config det = cfg;
      det.sessions = cfg.det_sessions * 3;
      std::string digests[2];
      const int thread_counts[2] = {cfg.det_threads_a, cfg.det_threads_b};
      for (int pass = 0; pass < 2; ++pass) {
        netgym::set_num_threads(thread_counts[pass]);
        digests[pass] =
            fleet::canonical_digest(run_all_tasks(det, det.sessions, ""));
      }
      netgym::set_num_threads(0);  // back to GENET_THREADS / hardware default
      info.determinism_identical = digests[0] == digests[1];
      std::printf("determinism: %lld sessions at %d vs %d threads -> %s\n",
                  static_cast<long long>(det.sessions), cfg.det_threads_a,
                  cfg.det_threads_b,
                  info.determinism_identical ? "identical" : "MISMATCH");
    }

    const auto start = std::chrono::steady_clock::now();
    fleet::FleetResult result = run_all_tasks(cfg, cfg.sessions, cfg.out_dir);
    result.duration_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    std::fputs(fleet::format_fleet_summary(result).c_str(), stdout);
    fleet::write_fleet_json(cfg.out, result, info);
    std::printf("wrote %s\n", cfg.out.c_str());

    if (info.determinism_checked && !info.determinism_identical) {
      std::fprintf(stderr,
                   "FAIL: fleet digests differ between %d and %d threads\n",
                   cfg.det_threads_a, cfg.det_threads_b);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
