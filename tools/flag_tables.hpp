#pragma once

// The flag table of every front end (DESIGN.md S5c): `genet <command>` parses
// the command's entries + kCliShared + obs::kFlags, `genet_serve` kServe +
// obs::kFlags, `bench_serve_load` kServeLoad, the experiment harnesses kBench
// + obs::kFlags. Any other flag is an error; `--help` prints the table.

#include "netgym/flags.hpp"

namespace netgym::flags::tables {

inline constexpr Flag kThreads =
    integer("threads", 1, kIntMax, nullptr,
            "pool threads (default: GENET_THREADS, else all cores)");

inline constexpr Flag kCliShared[] = {
    kThreads,
    choice("math", "strict|fast", nullptr,
           "MLP kernel math (default: GENET_MATH, else strict)"),
};

inline constexpr Flag kTask =
    choice("task", "abr|cc|lb", nullptr, "use case (required)");
inline constexpr Flag kSpace =
    integer("space", 1, 3, "3", "environment ranges RL1, RL2 or RL3");
inline constexpr Flag kSeed = integer("seed", 0, kInt64Max, "1", "RNG seed");
inline constexpr Flag kModel =
    text("model", nullptr, "policy checkpoint (required)");
inline constexpr Flag kBaseline =
    text("baseline", nullptr, "rule-based baseline (default: task's first)");

inline constexpr Flag kTrain[] = {
    kTask, kSpace,
    choice("method", "rl|genet|cl1|cl2|cl3|ensemble", "genet", "curriculum"),
    text("out", nullptr, "policy checkpoint to write (required)"),
    kSeed,
    integer("iters", 1, kIntMax, "900", "training iterations in all"),
    integer("rounds", 1, kIntMax, "9", "curriculum rounds"),
    kBaseline,
    integer("trials", 1, kIntMax, "15", "BO trials per round"),
    integer("envs", 1, kIntMax, "10", "environments per gap estimate"),
    integer("workers", 0, 1024, "0", "dist worker processes (0 = none)",
            "GENET_WORKERS"),
    integer("dist-timeout-ms", 1, 86'400'000, "120000",
            "per-work-unit deadline of a worker", "GENET_DIST_TIMEOUT_MS"),
    integer("trace-ship-max-bytes", 4096, 8 << 20, "1048576",
            "span bytes per worker result", "GENET_TRACE_SHIP_MAX_BYTES"),
    text("checkpoint-dir", "", "crash-safe snapshots in DIR/latest.ckpt",
         "GENET_CHECKPOINT_DIR"),
    integer("checkpoint-every", 1, kIntMax, "1", "rounds (rl: iterations)"),
    toggle("resume", "restart from DIR/latest.ckpt when present"),
};

inline constexpr Flag kEval[] = {
    kTask, kSpace, kModel,
    choice("trace-set", "fcc|norway|cellular|ethernet", nullptr,
           "replay a trace set, not synthetic environments"),
    choice("split", "train|test", "test", "trace-set split"),
    integer("envs", 1, kIntMax, "100", "synthetic environments"),
};

inline constexpr Flag kSearch[] = {
    kTask, kSpace, kModel, kBaseline,
    integer("trials", 1, kIntMax, "15", "BO trials"),
    kSeed,
};

inline constexpr Flag kTrace[] = {
    choice("kind", "abr|cc|fcc|norway|cellular|ethernet", nullptr,
           "generator or recorded set (required)"),
    text("out", nullptr, "trace file to write (required)"),
    kSeed,
    real("duration", 0, 1'000'000, nullptr, "seconds (default abr 200, cc 30)"),
    real("max-bw", 0, 1'000'000, nullptr, "peak Mbps (default abr 5, cc 3.16)"),
    integer("index", 0, kIntMax, "0", "trace of a recorded set"),
};

inline constexpr Flag kFleet[] = {
    kTask, kModel,
    integer("sessions", 1, kInt64Max, "100000", "sessions in the mix"),
    real("trace-prob", 0, 1, "0.5", "recorded-trace share of trace scenarios",
         "GENET_FLEET_TRACE_PROB"),
    kSeed,
    integer("shards", 1, kIntMax, "256", "replay shards"),
    integer("worst-k", 0, kIntMax, "8", "worst episodes kept per scenario"),
    text("out-dir", "", "directory for worst-k flight dumps"),
    text("json", nullptr, "JSON report to write (scripts/slo_report.py)"),
    text("digest", nullptr, "canonical determinism digest to write"),
    toggle("slo-strict", "exit nonzero when any SLO fails"),
};

/// The hidden subcommand the dist coordinator execs; no shared entries.
inline constexpr Flag kDistWorker[] = {
    integer("dist-fd", 0, 1 << 20, nullptr, "coordinator socket (required)"),
};

inline constexpr Flag kServe[] = {
    text("checkpoint", "", "serve checkpoint to load at startup"),
    text("watch-dir", "", "hot-swap source: its newest *.ckpt wins"),
    integer("port", 0, 65535, "0", "TCP port on 127.0.0.1 (0 = ephemeral)"),
    text("unix", "", "listen on this Unix socket instead of TCP"),
    text("port-file", nullptr, "write the bound TCP port here"),
    integer("shards", 1, 256, "2", "batching worker shards"),
    integer("batch-max", 1, 65536, "64", "max requests per forward pass"),
    integer("batch-window-us", 0, 10'000'000, "200", "straggler wait"),
    integer("poll-ms", 1, 3'600'000, "500", "watch-directory poll interval"),
    integer("max-seconds", 0, 86'400, "0", "exit after N seconds (0 = off)"),
    integer("metrics-interval-s", 0, 86'400, "0", "serve_metrics log period"),
};

inline constexpr Flag kServeLoad[] = {
    integer("port", 1, 65535, nullptr, "drive the daemon on 127.0.0.1:N"),
    text("unix", "", "drive a Unix-socket daemon"),
    toggle("quick", "small run for CI"),
    integer("sessions", 1, 100'000'000, "100000", "simulated sessions"),
    integer("rounds", 1, 10'000, "4", "act requests per session"),
    integer("connections", 1, 1024, "16", "connections, a thread each"),
    integer("window", 1, 65536, "64", "pipelined requests per connection"),
    text("swap-from", "", "checkpoint to hot-swap in mid-run..."),
    text("swap-dir", "", "...by atomically copying it into this dir"),
};

inline constexpr Flag kBench[] = {
    kThreads,
    text("checkpoint-dir", "", "crash-safe zoo snapshots, resumed on re-run",
         "GENET_CHECKPOINT_DIR"),
};

}  // namespace netgym::flags::tables
