#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/frame.hpp"
#include "serve/policy_store.hpp"

namespace serve {

// The serving daemon's engine (DESIGN.md S5g): a socket front end that
// coalesces concurrent action requests into batched policy inference.
//
// Thread shape:
//
//   accept thread --> one reader thread per connection
//                         | decode frames, route by hash(session_id)
//                         v
//                 N batching shards (one worker thread each)
//                         | woken once per batch: by the first request into
//                         | an empty queue, then by the batch_max-th; drain
//                         | up to batch_max requests, waiting at most
//                         | batch_window_us for stragglers, then one
//                         | rl::MlpPolicy::act_batch forward
//                         v
//                 responses appended in arrival order to one buffer per
//                 connection, then one write per connection per batch
//   + a watcher thread polling the checkpoint directory for hot swaps
//   + an optional telemetry exporter emitting periodic registry snapshots
//
// Each shard owns the per-session state of the sessions that hash to it and
// a private executable copy of the policy (the MLP's forward scratch is
// mutable, so sharing one network across shards would race); a hot swap just
// bumps the PolicyStore version and every shard rebuilds its copy before its
// next batch. Responses carry the version that computed them, which is how
// the load bench proves a mid-flight swap without dropped requests.

struct ServerOptions {
  /// Serve on this Unix socket path when non-empty; otherwise on
  /// 127.0.0.1:tcp_port (0 picks an ephemeral port, see Server::port()).
  std::string unix_path;
  int tcp_port = 0;

  int shards = 2;            ///< batching shards (worker threads)
  int batch_max = 64;        ///< max requests fused into one forward pass
  int batch_window_us = 200; ///< how long a shard waits for stragglers

  /// Checkpoint directory to watch for hot swaps ("" disables watching).
  std::string watch_dir;
  int watch_poll_ms = 500;

  /// Emit a "serve_metrics" telemetry event with the full registry snapshot
  /// every this many seconds (0 disables; events go to the global JSONL
  /// sink, so they are free when no --log-file is installed).
  int metrics_interval_s = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Load checkpoints into this before start(); the watcher thread keeps
  /// refreshing it afterwards.
  PolicyStore& store() { return store_; }

  /// Bind, listen, and spawn all threads. Requires a loaded policy; throws
  /// std::runtime_error on socket failures.
  void start();

  /// Graceful shutdown: stop accepting, drain shard queues, join every
  /// thread. Idempotent; also run by the destructor.
  void stop();

  /// Actual TCP port (after an ephemeral bind); 0 when serving a Unix path.
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_relaxed); }

 private:
  struct Connection {
    ~Connection();  ///< closes the fd: destroyed only when no thread can write

    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> open{true};
  };

  /// One queued act (or session-close) request, routed to its shard.
  struct Pending {
    std::shared_ptr<Connection> conn;
    std::uint64_t session_id = 0;
    std::vector<double> obs;
    bool close_session = false;
    std::chrono::steady_clock::time_point arrival;
  };

  struct SessionState {
    std::int64_t requests = 0;
    int last_action = 0;
    std::uint32_t last_version = 0;
  };

  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    std::unordered_map<std::uint64_t, SessionState> sessions;
    std::thread worker;
  };

  void accept_loop();
  void connection_loop(std::shared_ptr<Connection> conn);
  void shard_loop(Shard& shard);
  void watch_loop();
  void export_loop();

  /// Dispatch one decoded frame from `conn`; throws ProtocolError on a
  /// malformed body (the reader closes the connection).
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    std::string_view body);

  void enqueue(Pending&& item);

  /// Serialized write of `bytes` to a connection (MSG_NOSIGNAL, loops over
  /// short sends); marks the connection dead on any error instead of
  /// raising, so a client that disconnected mid-request is just dropped.
  static void send_all(Connection& conn, std::string_view bytes);

  ServerOptions opt_;
  PolicyStore store_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::mutex stop_mu_;  ///< serializes stop() against concurrent callers
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};

  std::thread accept_thread_;
  std::thread watch_thread_;
  std::thread export_thread_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Reader threads are detached and self-unregistering: a disconnecting
  // client frees its slot (and, once the last shard response drops its
  // shared_ptr, its fd) immediately, so a long-lived daemon does not
  // accumulate dead sockets. stop() waits for live_conns_ to reach zero.
  std::mutex conns_mu_;
  std::condition_variable conns_cv_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::atomic<int> live_conns_{0};

  // Sleep/wake for the watcher and exporter loops (fast shutdown).
  std::mutex tick_mu_;
  std::condition_variable tick_cv_;
};

}  // namespace serve
