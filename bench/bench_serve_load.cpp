// Load harness for a running genet_serve daemon (DESIGN.md S5g): drives
// simulated concurrent sessions through the daemon's batched
// request-coalescing path over --port or --unix, and reports exact (sorted,
// not histogram-bucketed) request-latency percentiles plus sustained
// requests/sec. Open-loop latency and the serving stage budget come from
// perf/ (`serve_open`); this binary is the hot-swap correctness harness.
//
// With --swap-from and --swap-dir, the run also proves hot swapping under
// fire: once half the requests are in flight the --swap-from checkpoint is
// copied into the daemon's watch directory (atomic tmp+rename, same
// contract as the trainer), and the run FAILS unless (a) later responses
// carry the new policy version and (b) not a single request was dropped or
// answered with an error across the swap.
//
// Every client connection pipelines a window of act requests and matches
// responses by session id, so the server sees genuinely concurrent traffic
// per connection on top of the cross-connection concurrency.
//
// Exit is nonzero on any failed request, latency-accounting hole, hot-swap
// violation, or a sustained rate below kMinRequestsPerS.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "flag_tables.hpp"
#include "netgym/flags.hpp"
#include "netgym/rng.hpp"
#include "serve/client.hpp"

namespace {

/// Throughput floor of the pass/fail verdict: even a quick run on a shared
/// machine sustains well above this, so falling below it means the daemon
/// (or the connection handling) is stuck, not merely slow.
constexpr double kMinRequestsPerS = 100.0;

/// The flags::tables::kServeLoad flags, resolved (--help describes them).
struct Config {
  long sessions;
  int rounds;       // act requests per session
  int connections;  // client connections (one thread each)
  int window;       // pipelined requests in flight per connection
  int port;
  std::string unix_path;
  // Hot swap: copy `swap_from` into `swap_dir` mid-run.
  std::string swap_from;
  std::string swap_dir;
};

Config parse_args(int argc, char** argv) {
  namespace flags = netgym::flags;
  const flags::Args args = flags::parse_or_exit(
      {flags::tables::kServeLoad}, "bench_serve_load", argc, argv);
  const auto num = [&](const char* name) {
    return static_cast<int>(args.integer(name));
  };
  const bool quick = args.on("quick");
  const Config cfg{quick ? std::min(num("sessions"), 5000) : num("sessions"),
                   num("rounds"),
                   quick ? std::min(num("connections"), 8) : num("connections"),
                   num("window"),
                   args.has("port") ? num("port") : 0,
                   args.text("unix"),
                   args.text("swap-from"),
                   args.text("swap-dir")};
  if ((cfg.port == 0) == cfg.unix_path.empty()) {
    flags::fail("bench_serve_load", "give exactly one of --port and --unix");
  }
  if (cfg.swap_from.empty() != cfg.swap_dir.empty()) {
    flags::fail("bench_serve_load", "--swap-from and --swap-dir go together");
  }
  return cfg;
}

/// Per-connection load results, merged after the join.
struct WorkerResult {
  std::vector<double> latencies_s;
  std::set<std::uint32_t> versions;
  long ok = 0;
  long failed = 0;
  std::uint32_t last_version = 0;
  std::string error;  // first failure detail, for the report
};

serve::Client connect(const Config& cfg) {
  return cfg.unix_path.empty() ? serve::Client::connect_tcp(cfg.port)
                               : serve::Client::connect_unix(cfg.unix_path);
}

/// Drive one connection: its slice of sessions, `rounds` requests each,
/// pipelined `window` at a time, latencies matched by session id.
void run_worker(const Config& cfg, long first_session, long session_count,
                int obs_size, std::atomic<long>& global_done,
                WorkerResult& result) {
  using Clock = std::chrono::steady_clock;
  try {
    serve::Client client = connect(cfg);
    result.latencies_s.reserve(
        static_cast<std::size_t>(session_count) * cfg.rounds);

    // Deterministic per-worker observations: contents don't matter to the
    // protocol, but keep them finite and varied so argmax isn't degenerate.
    std::vector<double> obs(static_cast<std::size_t>(obs_size));
    netgym::Rng rng(static_cast<std::uint64_t>(first_session) + 1);

    std::vector<Clock::time_point> sent(static_cast<std::size_t>(cfg.window));
    std::string out;
    for (int round = 0; round < cfg.rounds; ++round) {
      for (long base = 0; base < session_count; base += cfg.window) {
        const long chunk = std::min<long>(cfg.window, session_count - base);
        out.clear();
        for (long k = 0; k < chunk; ++k) {
          const std::uint64_t sid =
              static_cast<std::uint64_t>(first_session + base + k);
          for (double& v : obs) v = rng.uniform(-1.0, 1.0);
          sent[static_cast<std::size_t>(k)] = Clock::now();
          serve::encode_act(out, sid, obs.data(), obs.size());
        }
        client.send_raw(out);
        for (long k = 0; k < chunk; ++k) {
          const std::string body = client.read_frame();
          const Clock::time_point done = Clock::now();
          if (serve::type_of(body) == serve::MsgType::kError) {
            throw serve::ProtocolError("server error: " +
                                       serve::decode_error(body));
          }
          const serve::ActResponse r = serve::decode_act_ok(body);
          const long idx = static_cast<long>(r.session_id) - first_session -
                           base;
          if (idx < 0 || idx >= chunk) {
            throw serve::ProtocolError("response for unknown session id");
          }
          result.latencies_s.push_back(
              std::chrono::duration<double>(
                  done - sent[static_cast<std::size_t>(idx)])
                  .count());
          result.versions.insert(r.policy_version);
          result.last_version = r.policy_version;
          ++result.ok;
          global_done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    // Release the server-side session state we created.
    for (long k = 0; k < session_count; ++k) {
      client.close_session(static_cast<std::uint64_t>(first_session + k));
    }
  } catch (const std::exception& e) {
    // Any unanswered pipelined request is a failure: the accounting below
    // compares ok against the expected total.
    result.failed = session_count * cfg.rounds - result.ok;
    result.error = e.what();
  }
}

/// Atomic checkpoint drop: copy into the watch dir under a temp name, then
/// rename -- the watcher can never observe a half-written file.
void drop_checkpoint(const std::string& from, const std::string& dir,
                     const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path tmp = fs::path(dir) / (name + ".tmp");
  const fs::path final_path = fs::path(dir) / name;
  fs::copy_file(from, tmp, fs::copy_options::overwrite_existing);
  fs::rename(tmp, final_path);
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse_args(argc, argv);
  const bool swap_enabled = !cfg.swap_from.empty();

  try {
    // Shape discovery + the version serving before any load.
    serve::Client probe = connect(cfg);
    const serve::HelloResponse hello = probe.hello();
    const std::uint32_t first_version = hello.policy_version;

    const long requests_total = cfg.sessions * cfg.rounds;
    std::printf("bench_serve_load: %ld sessions x %d requests over %d "
                "connections (obs %u -> %u actions, policy v%u)\n",
                cfg.sessions, cfg.rounds, cfg.connections, hello.obs_size,
                hello.action_count, first_version);

    std::vector<WorkerResult> results(
        static_cast<std::size_t>(cfg.connections));
    std::atomic<long> global_done{0};
    const long per_conn =
        (cfg.sessions + cfg.connections - 1) / cfg.connections;

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (int c = 0; c < cfg.connections; ++c) {
      const long first_session = static_cast<long>(c) * per_conn;
      const long count =
          std::max<long>(0, std::min<long>(per_conn,
                                           cfg.sessions - first_session));
      if (count == 0) break;
      workers.emplace_back(run_worker, std::cref(cfg), first_session, count,
                           static_cast<int>(hello.obs_size),
                           std::ref(global_done),
                           std::ref(results[static_cast<std::size_t>(c)]));
    }

    // Hot swap under fire: wait for half the requests, drop the new
    // checkpoint into the watch directory, let the daemon's poller pick it
    // up while the load keeps running.
    if (swap_enabled) {
      while (global_done.load(std::memory_order_relaxed) <
             requests_total / 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      drop_checkpoint(cfg.swap_from, cfg.swap_dir, "policy_v2.ckpt");
      std::printf("  dropped v2 checkpoint after %ld requests\n",
                  global_done.load(std::memory_order_relaxed));
    }
    for (std::thread& t : workers) t.join();
    const double duration_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // Merge.
    std::vector<double> latencies;
    std::set<std::uint32_t> versions;
    long ok = 0;
    long failed = 0;
    std::uint32_t last_version = 0;
    for (const WorkerResult& r : results) {
      latencies.insert(latencies.end(), r.latencies_s.begin(),
                       r.latencies_s.end());
      versions.insert(r.versions.begin(), r.versions.end());
      ok += r.ok;
      failed += r.failed;
      last_version = std::max(last_version, r.last_version);
      if (!r.error.empty()) {
        std::fprintf(stderr, "worker failure: %s\n", r.error.c_str());
      }
    }
    std::sort(latencies.begin(), latencies.end());
    const double requests_per_s = ok / duration_s;

    // Short runs can finish before the watcher's next poll tick: if the
    // checkpoint was dropped but no load-phase response carried the new
    // version yet, probe (off the clock) until the swap lands. These drain
    // requests must succeed like any other but don't count toward the
    // throughput/latency numbers.
    if (swap_enabled && versions.size() < 2 && failed == 0) {
      const std::vector<double> obs(hello.obs_size, 0.25);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(15);
      long drain_requests = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        const serve::ActResponse r = probe.act(0, obs.data(), obs.size());
        ++drain_requests;
        versions.insert(r.policy_version);
        last_version = r.policy_version;
        if (versions.size() >= 2) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      std::printf("  drained %ld extra requests waiting for the swap\n",
                  drain_requests);
    }
    const bool swap_observed = versions.size() >= 2;

    std::printf("  %ld/%ld ok in %.2fs  (%.0f requests/s)\n", ok,
                requests_total, duration_s, requests_per_s);
    std::printf("  latency p50 %.3fms  p99 %.3fms  p99.9 %.3fms  max %.3fms\n",
                percentile(latencies, 0.5) * 1e3,
                percentile(latencies, 0.99) * 1e3,
                percentile(latencies, 0.999) * 1e3,
                (latencies.empty() ? 0.0 : latencies.back()) * 1e3);
    if (swap_enabled) {
      std::printf("  hot swap: versions seen {");
      bool first = true;
      for (const std::uint32_t v : versions) {
        std::printf("%s%u", first ? "" : ", ", v);
        first = false;
      }
      std::printf("}, last response v%u\n", last_version);
    }

    // Hard pass/fail: the bench is also the hot-swap correctness harness.
    int rc = 0;
    if (failed != 0 || ok != requests_total) {
      std::fprintf(stderr, "FAIL: %ld of %ld requests failed\n",
                   requests_total - ok, requests_total);
      rc = 1;
    }
    if (static_cast<long>(latencies.size()) != ok) {
      std::fprintf(stderr, "FAIL: latency accounting hole (%zu != %ld)\n",
                   latencies.size(), ok);
      rc = 1;
    }
    if (requests_per_s < kMinRequestsPerS) {
      std::fprintf(stderr, "FAIL: %.0f requests/s is below the %.0f floor\n",
                   requests_per_s, kMinRequestsPerS);
      rc = 1;
    }
    if (swap_enabled && !swap_observed) {
      std::fprintf(stderr,
                   "FAIL: hot swap dropped but every response carried the "
                   "old policy version\n");
      rc = 1;
    }
    if (swap_enabled && swap_observed && last_version == first_version) {
      std::fprintf(stderr, "FAIL: final responses regressed to v%u\n",
                   first_version);
      rc = 1;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
