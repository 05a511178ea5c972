// genet_serve — the batched policy-serving daemon (DESIGN.md S5g).
//
//   genet_serve --checkpoint policy.ckpt --port 7470
//   genet_serve --watch-dir ckpts/ --unix /tmp/genet.sock --shards 4
//
// Loads a policy from a serve checkpoint (written by `genet export` or the
// training loop), answers action requests over a length-prefixed binary
// protocol (serve/frame.hpp), coalesces concurrent requests into batched
// forward passes, and hot-swaps the policy whenever a newer checkpoint
// appears in --watch-dir -- a bad checkpoint is logged and skipped, the old
// policy keeps serving. SIGINT/SIGTERM drain and exit 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "netgym/obs.hpp"
#include "netgym/parse.hpp"
#include "serve/server.hpp"

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(usage: genet_serve [options]

policy source (at least one required):
  --checkpoint FILE   serve checkpoint to load at startup
  --watch-dir DIR     directory to watch for hot swaps; the newest *.ckpt is
                      loaded at startup (unless --checkpoint is given) and
                      whenever a newer one appears. A checkpoint that fails
                      to load is skipped and the old policy keeps serving.

listening (default: ephemeral TCP port, printed at startup):
  --port N            listen on 127.0.0.1:N (0 picks an ephemeral port)
  --unix PATH         listen on a Unix socket instead of TCP
  --port-file FILE    write the actual TCP port to FILE (for harnesses that
                      start the daemon with --port 0)

batching:
  --shards N          batching worker shards (default 2)
  --batch-max N       max requests fused into one forward pass (default 64)
  --batch-window-us N how long a shard waits for stragglers (default 200)
  --poll-ms N         watch-directory poll interval (default 500)

lifecycle:
  --max-seconds N     exit cleanly after N seconds (0 = run until signalled;
                      used by the CI smoke job)
  --metrics-interval-s N
                      log a serve_metrics snapshot to the run log every N
                      seconds (0 off)
)");
  std::fputs(netgym::obs::kUsage, stderr);
  std::exit(2);
}

using Options = std::map<std::string, std::string>;

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) usage("expected --option");
    const std::string key = argv[i] + 2;
    if (netgym::obs::is_switch(key)) {
      options.try_emplace(key);
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

int get_int(const Options& options, const std::string& key, int fallback,
            std::int64_t lo, std::int64_t hi) {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  return static_cast<int>(
      netgym::parse_i64_in_range(("--" + key).c_str(), it->second, lo, hi));
}

volatile std::sig_atomic_t g_signalled = 0;
void on_signal(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    serve::ServerOptions sopt;
    sopt.unix_path = get(options, "unix", "");
    sopt.tcp_port = get_int(options, "port", 0, 0, 65535);
    sopt.shards = get_int(options, "shards", 2, 1, 256);
    sopt.batch_max = get_int(options, "batch-max", 64, 1, 65536);
    sopt.batch_window_us = get_int(options, "batch-window-us", 200, 0,
                                   10'000'000);
    sopt.watch_dir = get(options, "watch-dir", "");
    sopt.watch_poll_ms = get_int(options, "poll-ms", 500, 1, 3'600'000);
    sopt.metrics_interval_s =
        get_int(options, "metrics-interval-s", 0, 0, 86'400);
    const int max_seconds = get_int(options, "max-seconds", 0, 0, 86'400);
    const std::string checkpoint = get(options, "checkpoint", "");
    if (checkpoint.empty() && sopt.watch_dir.empty()) {
      usage("need --checkpoint and/or --watch-dir");
    }
    if (!sopt.unix_path.empty() && options.count("port") != 0U) {
      usage("--unix and --port are mutually exclusive");
    }

    // A client vanishing mid-response must never kill the daemon: writes use
    // MSG_NOSIGNAL, and this covers any other stray EPIPE source.
    std::signal(SIGPIPE, SIG_IGN);

    // Built before the server so its startup load lands in the run log, and
    // destroyed after it.
    netgym::obs::Session session(netgym::obs::parse(options));
    serve::Server server(sopt);
    std::string loaded;
    if (!checkpoint.empty()) {
      server.store().load_file(checkpoint);
      loaded = checkpoint;
    } else {
      loaded = server.store().load_latest(sopt.watch_dir);
    }
    const auto policy = server.store().current();
    server.start();

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    if (!sopt.unix_path.empty()) {
      std::printf("serving on %s\n", sopt.unix_path.c_str());
    } else {
      std::printf("serving on 127.0.0.1:%d\n", server.port());
    }
    std::printf("policy v%u from %s (obs %d -> %d actions%s%s)\n",
                policy->version, loaded.c_str(), policy->obs_size(),
                policy->action_count(), policy->task.empty() ? "" : ", task ",
                policy->task.c_str());
    std::fflush(stdout);
    if (options.count("port-file") != 0U) {
      std::ofstream pf(options.at("port-file"));
      if (!pf) throw std::runtime_error("cannot write " +
                                        options.at("port-file"));
      pf << server.port() << "\n";
    }

    const auto started = std::chrono::steady_clock::now();
    while (g_signalled == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (max_seconds > 0 &&
          std::chrono::steady_clock::now() - started >=
              std::chrono::seconds(max_seconds)) {
        break;
      }
    }
    server.stop();
    session.close();
    std::printf("shutdown complete (policy v%u serving at exit)\n",
                server.store().current()->version);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
