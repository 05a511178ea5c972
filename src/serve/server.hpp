#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/frame.hpp"
#include "serve/policy_store.hpp"

namespace serve {

// The serving daemon's engine (DESIGN.md S5g): a socket front end that
// coalesces concurrent action requests into batched policy inference. A
// running Server holds 1 + shards threads, however many clients it serves:
//
//   one I/O thread   poll()s the listener, every connection and a wake pipe:
//                    accepts, reads and decodes frames, answers hello, routes
//                    acts/closes by hash(session_id), flushes what a shard
//                    could not send, and runs the watch and export ticks
//                         v
//   N shard workers  woken once per batch (by the first request into an
//                    empty queue, then by the batch_max-th); drain up to
//                    batch_max requests, waiting at most batch_window_us for
//                    stragglers; one rl::MlpPolicy::act_batch forward; answer
//                    in arrival order into one outbox per connection, handed
//                    off with one non-blocking send, the rest queued on the
//                    connection's bounded outbound buffer
//
// Each shard owns the sessions that hash to it and a private policy copy (the
// MLP's forward scratch is mutable); a hot swap bumps the PolicyStore version
// and each shard rebuilds its copy before its next batch. Responses carry the
// version that computed them, so the load bench can prove a mid-flight swap.

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
  /// A connection whose unsent responses pass this many bytes is a reader
  /// too slow to serve: it is closed and counted in serve.evicted_connections.
  static constexpr std::size_t kMaxOutboundBytes = 1u << 20;

  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Load checkpoints into this before start(); the I/O thread's watch tick
  /// keeps refreshing it afterwards.
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
    /// Sends `bytes` behind any queued ones without blocking, queueing what
    /// the kernel does not take; true when the queue was empty (so the I/O
    /// thread must start polling for POLLOUT).
    bool send(std::string_view bytes);
    void flush();         ///< I/O thread, on POLLOUT: one send from the queue
    void close_locked();  ///< shut the socket down, drop later responses
    int fd = -1;
    FrameReader reader;  ///< I/O thread only
    std::mutex mu;       ///< guards `out`, `closed` writes and every send
    std::string out;     ///< bytes the kernel has not taken yet
    std::atomic<bool> closed{false};
  };

  /// One queued request, routed to its shard. kGone follows a closed
  /// connection's last request on every shard and ends its sessions.
  struct Pending {
    enum class Kind : std::uint8_t { kAct, kClose, kGone };
    std::shared_ptr<Connection> conn;
    Kind kind = Kind::kAct;
    std::uint64_t session_id = 0;
    std::vector<double> obs{};
    std::chrono::steady_clock::time_point arrival{};
  };

  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    /// Live sessions by (connection, id): a session belongs to its connection.
    std::set<std::pair<std::uintptr_t, std::uint64_t>> sessions;
    std::thread worker;
  };

  void io_loop();
  void shard_loop(Shard& shard);

  /// One recv() from a readable connection, then dispatch its complete
  /// frames; false when the peer hung up or broke the protocol.
  bool read_from(const std::shared_ptr<Connection>& conn);

  /// Dispatch one decoded frame from `conn`; throws ProtocolError on a
  /// malformed body (the I/O thread closes the connection).
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    std::string_view body);

  void enqueue(Shard& shard, Pending&& item);
  void wake();  ///< wakes the I/O thread's poll()

  ServerOptions opt_;
  PolicyStore store_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: [0] polled, [1] for wake()
  int port_ = 0;
  std::mutex stop_mu_;  ///< serializes stop() against concurrent callers
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};

  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread io_thread_;
};

}  // namespace serve
