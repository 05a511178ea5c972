// genet_serve — the batched policy-serving daemon (DESIGN.md S5g).
//
//   genet_serve --checkpoint policy.ckpt --port 7470
//   genet_serve --watch-dir ckpts/ --unix /tmp/genet.sock --shards 4
//
// Loads a policy from a serve checkpoint (written by `genet train --out`),
// answers action requests over a length-prefixed binary protocol
// (serve/frame.hpp), coalesces concurrent requests into batched forward
// passes, and hot-swaps the policy whenever a newer checkpoint appears in
// --watch-dir -- a bad checkpoint is logged and skipped, the old policy keeps
// serving. SIGINT/SIGTERM drain and exit 0. The flags are
// flags::tables::kServe plus the observability flags; --help lists them.

#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "flag_tables.hpp"
#include "netgym/checkpoint.hpp"
#include "netgym/flags.hpp"
#include "netgym/obs.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_signalled = 0;
void on_signal(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  namespace flags = netgym::flags;
  const flags::Args args = flags::parse_or_exit(
      {flags::tables::kServe, netgym::obs::kFlags}, "genet_serve", argc, argv);
  try {
    serve::ServerOptions sopt;
    sopt.unix_path = args.text("unix");
    sopt.tcp_port = static_cast<int>(args.integer("port"));
    sopt.shards = static_cast<int>(args.integer("shards"));
    sopt.batch_max = static_cast<int>(args.integer("batch-max"));
    sopt.batch_window_us = static_cast<int>(args.integer("batch-window-us"));
    sopt.watch_dir = args.text("watch-dir");
    sopt.watch_poll_ms = static_cast<int>(args.integer("poll-ms"));
    sopt.metrics_interval_s =
        static_cast<int>(args.integer("metrics-interval-s"));
    const int max_seconds = static_cast<int>(args.integer("max-seconds"));
    const std::string& checkpoint = args.text("checkpoint");
    if (checkpoint.empty() && sopt.watch_dir.empty()) {
      flags::fail("genet_serve", "need --checkpoint and/or --watch-dir");
    }
    if (!sopt.unix_path.empty() && args.given().count("port") != 0U) {
      flags::fail("genet_serve", "--unix and --port are mutually exclusive");
    }

    // A client vanishing mid-response must never kill the daemon: writes use
    // MSG_NOSIGNAL, and this covers any other stray EPIPE source.
    std::signal(SIGPIPE, SIG_IGN);

    // Built before the server so its startup load lands in the run log, and
    // destroyed after it.
    netgym::obs::Session session(netgym::obs::parse(args));
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
    if (args.has("port-file")) {
      netgym::write_file_bytes(args.text("port-file"),
                               std::to_string(server.port()) + "\n");
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
