#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "netgym/rng.hpp"
#include "netgym/telemetry.hpp"

namespace serve {

namespace telemetry = netgym::telemetry;

namespace {

/// Adds `delta` to the live session states of every shard in the process and
/// publishes the sum as the serve.sessions gauge. A Gauge can only be set, so
/// the sum lives here; the lock keeps the last published value the true sum.
void add_live_sessions(std::int64_t delta) {
  static std::mutex mu;
  static std::int64_t live = 0;
  static telemetry::Gauge& gauge =
      telemetry::Registry::instance().gauge("serve.sessions");
  std::lock_guard<std::mutex> lock(mu);
  live += delta;
  gauge.set(static_cast<double>(live));
}

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerOptions options) : opt_(std::move(options)) {
  if (opt_.shards < 1) throw std::invalid_argument("Server: shards must be >= 1");
  if (opt_.batch_max < 1) {
    throw std::invalid_argument("Server: batch_max must be >= 1");
  }
  if (opt_.batch_window_us < 0 || opt_.watch_poll_ms < 1) {
    throw std::invalid_argument("Server: bad batching/watch options");
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load()) throw std::runtime_error("Server: already started");
  if (store_.current() == nullptr) {
    throw std::runtime_error("Server: no policy loaded (load a checkpoint "
                             "into store() before start)");
  }
  stop_.store(false);

  if (!opt_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("socket(AF_UNIX) failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.unix_path.size() >= sizeof(addr.sun_path)) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("unix socket path too long: " + opt_.unix_path);
    }
    std::strncpy(addr.sun_path, opt_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(opt_.unix_path.c_str());  // stale socket from a previous run
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("bind(" + opt_.unix_path +
                               ") failed: " + std::strerror(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opt_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("bind(127.0.0.1:" +
                               std::to_string(opt_.tcp_port) +
                               ") failed: " + std::strerror(errno));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(listen_fd_, 512) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("listen failed: ") +
                             std::strerror(errno));
  }

  shards_.clear();
  for (int s = 0; s < opt_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, &shard] { shard_loop(*shard); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (!opt_.watch_dir.empty()) {
    watch_thread_ = std::thread([this] { watch_loop(); });
  }
  if (opt_.metrics_interval_s > 0) {
    export_thread_ = std::thread([this] { export_loop(); });
  }
  running_.store(true);
}

void Server::stop() {
  // One caller performs the teardown; concurrent callers (e.g. a signal
  // handler path racing the destructor) block here until it is complete.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stop_.exchange(true)) return;

  // Only shut the listener down here: that wakes the blocked accept() while
  // the fd number stays reserved. Closing it now would race accept_loop()'s
  // read of listen_fd_, and a reused fd number could land under accept().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    // Wake blocked readers; their recv() returns 0/-1 and they exit.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->open.load()) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  tick_cv_.notify_all();
  for (auto& shard : shards_) shard->cv.notify_all();

  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // All reader threads must be gone before the shard workers drain, so no
    // new request can arrive behind a worker's final pass.
    std::unique_lock<std::mutex> lock(conns_mu_);
    conns_cv_.wait(lock, [this] {
      return live_conns_.load(std::memory_order_relaxed) == 0;
    });
  }
  for (auto& shard : shards_) shard->cv.notify_all();
  std::int64_t dropped_sessions = 0;
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
    dropped_sessions += static_cast<std::int64_t>(shard->sessions.size());
    shard->sessions.clear();
  }
  if (dropped_sessions != 0) add_live_sessions(-dropped_sessions);
  if (watch_thread_.joinable()) watch_thread_.join();
  if (export_thread_.joinable()) export_thread_.join();
  if (!opt_.unix_path.empty()) ::unlink(opt_.unix_path.c_str());
  running_.store(false);
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load()) return;
      if (errno == EINTR) continue;
      return;  // listener broken; stop() tears the rest down
    }
    if (opt_.unix_path.empty()) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    telemetry::Registry::instance().counter("serve.connections").add();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (stop_.load()) return;  // conn's destructor closes the socket
      conns_.push_back(conn);
      live_conns_.fetch_add(1, std::memory_order_relaxed);
    }
    // Detached: connection_loop unregisters itself on exit, and stop()
    // blocks until live_conns_ drains, so no detached thread outlives the
    // Server.
    std::thread([this, conn = std::move(conn)]() mutable {
      connection_loop(std::move(conn));
    }).detach();
  }
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  FrameReader reader;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // disconnect (0) or error; either way we are done
    reader.feed(buf, static_cast<std::size_t>(n));
    try {
      while (auto body = reader.next()) {
        handle_frame(conn, *body);
      }
    } catch (const ProtocolError& e) {
      // The byte stream is unrecoverable (bad prefix / unknown type):
      // explain, then hang up. Semantic errors never land here.
      telemetry::Registry::instance().counter("serve.protocol_errors").add();
      std::string out;
      encode_error(out, e.what());
      send_all(*conn, out);
      break;
    }
  }
  conn->open.store(false);
  // Shut down but do NOT close: shard workers may still hold this
  // Connection for in-flight responses (their sends fail with EPIPE, which
  // send_all absorbs). The fd closes in ~Connection when the last
  // shared_ptr drops, so a write can never land on a recycled descriptor.
  ::shutdown(conn->fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end(); ++it) {
      if (it->get() == conn.get()) {
        conns_.erase(it);
        break;
      }
    }
    live_conns_.fetch_sub(1, std::memory_order_relaxed);
    // Notify under the lock: stop() may destroy the Server the moment it
    // observes zero live connections, so this thread must touch no member
    // after releasing conns_mu_.
    conns_cv_.notify_all();
  }
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          std::string_view body) {
  switch (type_of(body)) {
    case MsgType::kHello: {
      const auto policy = store_.current();
      HelloResponse resp;
      resp.obs_size = static_cast<std::uint32_t>(policy->obs_size());
      resp.action_count = static_cast<std::uint32_t>(policy->action_count());
      resp.policy_version = policy->version;
      std::string out;
      encode_hello_ok(out, resp);
      send_all(*conn, out);
      return;
    }
    case MsgType::kAct: {
      ActRequest req = decode_act(body);
      Pending item;
      item.conn = conn;
      item.session_id = req.session_id;
      item.obs = std::move(req.obs);
      item.arrival = std::chrono::steady_clock::now();
      enqueue(std::move(item));
      return;
    }
    case MsgType::kClose: {
      Pending item;
      item.conn = conn;
      item.session_id = decode_close(body);
      item.close_session = true;
      item.arrival = std::chrono::steady_clock::now();
      enqueue(std::move(item));
      return;
    }
    default:
      throw ProtocolError("unexpected server-bound message type");
  }
}

void Server::enqueue(Pending&& item) {
  // Sessions are pinned to shards by their id, so one shard owns all of a
  // session's state and requests for it stay FIFO.
  const std::size_t s =
      std::hash<std::uint64_t>{}(item.session_id) % shards_.size();
  Shard& shard = *shards_[s];
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.queue.push_back(std::move(item));
    // Wake the worker once per batch, not once per request: an empty queue
    // is what its idle wait sleeps on, and a full batch is what closes its
    // batching window early. Any arrival in between would only wake it to
    // go back to sleep.
    const std::size_t depth = shard.queue.size();
    wake = depth == 1 || depth == static_cast<std::size_t>(opt_.batch_max);
  }
  if (wake) shard.cv.notify_one();
}

void Server::shard_loop(Shard& shard) {
  // Cached per-shard metric handles: one relaxed atomic op per event.
  telemetry::Registry& reg = telemetry::Registry::instance();
  telemetry::Counter& requests = reg.counter("serve.requests");
  telemetry::Counter& batches = reg.counter("serve.batches");
  telemetry::Counter& writes = reg.counter("serve.writes");
  telemetry::Counter& rejects = reg.counter("serve.rejected_requests");
  telemetry::Histogram& batch_size = reg.histogram("serve.batch_size");
  // Per-request latency attribution (DESIGN.md S5j): the end-to-end time of
  // every acted request splits exactly into queue wait (arrival -> drained
  // from the shard queue), batch formation (drained -> forward start),
  // forward (the fused act_batch call), and write-back (forward end -> the
  // return of the write that carries the response). The four durations sum to
  // serve.phase.total_s per request by construction.
  telemetry::Histogram& phase_queue = reg.histogram("serve.phase.queue_s");
  telemetry::Histogram& phase_batch = reg.histogram("serve.phase.batch_s");
  telemetry::Histogram& phase_forward = reg.histogram("serve.phase.forward_s");
  telemetry::Histogram& phase_write = reg.histogram("serve.phase.write_s");
  telemetry::Histogram& phase_total = reg.histogram("serve.phase.total_s");

  // act_batch samples through an Rng stream per row; greedy serving ignores
  // the draw, but the signature still wants valid pointers.
  netgym::Rng greedy_rng(0);

  std::unique_ptr<rl::MlpPolicy> policy;
  std::uint32_t policy_version = 0;
  std::vector<Pending> batch;
  std::vector<double> rows;
  std::vector<netgym::Rng*> rngs;
  std::vector<int> actions;
  // A batch's responses, one outbox per connection in order of first
  // appearance. Slots are reused across batches (their buffers keep their
  // capacity); `conn` stays valid while `batch` holds the connection.
  struct Outbox {
    Connection* conn = nullptr;
    std::string bytes;
    std::chrono::steady_clock::time_point sent;
  };
  std::vector<Outbox> outboxes;
  // The batch's answered acts: arrival time and the outbox that carries it.
  struct Acted {
    std::chrono::steady_clock::time_point arrival;
    std::size_t box = 0;
  };
  std::vector<Acted> acted;

  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock, [&] { return stop_.load() || !shard.queue.empty(); });
      if (shard.queue.empty()) return;  // stop requested and fully drained
      // Batching window: once the first request is in, wait briefly for
      // stragglers so concurrent sessions fuse into one forward pass, but
      // never hold a full batch back.
      if (static_cast<int>(shard.queue.size()) < opt_.batch_max &&
          opt_.batch_window_us > 0) {
        shard.cv.wait_for(
            lock, std::chrono::microseconds(opt_.batch_window_us), [&] {
              return stop_.load() ||
                     static_cast<int>(shard.queue.size()) >= opt_.batch_max;
            });
      }
      while (!shard.queue.empty() &&
             static_cast<int>(batch.size()) < opt_.batch_max) {
        batch.push_back(std::move(shard.queue.front()));
        shard.queue.pop_front();
      }
    }
    // One drain timestamp covers the whole batch: everything queued behind
    // it left the shard queue at this instant.
    const auto drained = std::chrono::steady_clock::now();

    // Refresh this shard's executable policy if a hot swap landed.
    const auto current = store_.current();
    if (policy == nullptr || policy_version != current->version) {
      policy = current->instantiate();
      policy_version = current->version;
    }
    const std::size_t obs_size = static_cast<std::size_t>(current->obs_size());

    // Pack the rows of the well-formed acts for one fused forward.
    rows.clear();
    std::size_t n = 0;
    for (const Pending& item : batch) {
      if (item.close_session || item.obs.size() != obs_size) continue;
      rows.insert(rows.end(), item.obs.begin(), item.obs.end());
      ++n;
    }
    std::chrono::steady_clock::time_point forward_start;
    std::chrono::steady_clock::time_point forward_end;
    if (n > 0) {
      rngs.assign(n, &greedy_rng);
      actions.resize(n);
      forward_start = std::chrono::steady_clock::now();
      policy->act_batch(rows.data(), n, rngs.data(), actions.data());
      forward_end = std::chrono::steady_clock::now();
      batches.add();
      batch_size.record(static_cast<double>(n));
    }

    // Answer in arrival order: every response (act, close or error) is
    // appended to its connection's outbox, and session state changes in the
    // same walk, so a session's requests take effect and are answered in the
    // order they arrived whatever mix of acts and closes the batch holds.
    std::size_t used = 0;  // outboxes holding this batch's connections
    acted.clear();
    std::int64_t session_delta = 0;
    std::size_t next_action = 0;
    for (const Pending& item : batch) {
      std::size_t box = 0;
      while (box < used && outboxes[box].conn != item.conn.get()) ++box;
      if (box == used) {
        if (used == outboxes.size()) outboxes.emplace_back();
        outboxes[used].conn = item.conn.get();
        outboxes[used].bytes.clear();
        ++used;
      }
      std::string& out = outboxes[box].bytes;
      if (item.close_session) {
        session_delta -=
            static_cast<std::int64_t>(shard.sessions.erase(item.session_id));
        encode_close_ok(out, item.session_id);
      } else if (item.obs.size() != obs_size) {
        // Semantic error: answer with a diagnostic but keep the connection
        // (the stream itself is fine).
        rejects.add();
        encode_error(out, "act: expected " + std::to_string(obs_size) +
                              " observation values, got " +
                              std::to_string(item.obs.size()));
      } else {
        const auto [it, inserted] = shard.sessions.try_emplace(item.session_id);
        session_delta += inserted ? 1 : 0;
        SessionState& session = it->second;
        const int action = actions[next_action++];
        ++session.requests;
        session.last_action = action;
        session.last_version = policy_version;

        ActResponse resp;
        resp.session_id = item.session_id;
        resp.action = action;
        resp.policy_version = policy_version;
        encode_act_ok(out, resp);
        acted.push_back({item.arrival, box});
      }
    }
    // Published before the writes, so a client that reads a close_ok never
    // sees the closed session still counted.
    if (session_delta != 0) add_live_sessions(session_delta);

    // One write per connection; a request is done when its connection's
    // write returns.
    for (std::size_t b = 0; b < used; ++b) {
      send_all(*outboxes[b].conn, outboxes[b].bytes);
      writes.add();
      outboxes[b].sent = std::chrono::steady_clock::now();
    }

    if (!acted.empty()) {
      requests.add(static_cast<std::int64_t>(acted.size()));
      const double forward_s =
          std::chrono::duration<double>(forward_end - forward_start).count();
      const double batch_s =
          std::chrono::duration<double>(forward_start - drained).count();
      for (const Acted& request : acted) {
        const auto done = outboxes[request.box].sent;
        phase_queue.record(
            std::chrono::duration<double>(drained - request.arrival).count());
        phase_batch.record(batch_s);
        phase_forward.record(forward_s);
        phase_write.record(
            std::chrono::duration<double>(done - forward_end).count());
        phase_total.record(
            std::chrono::duration<double>(done - request.arrival).count());
      }
    }
  }
}

void Server::watch_loop() {
  std::unique_lock<std::mutex> lock(tick_mu_);
  while (!stop_.load()) {
    tick_cv_.wait_for(lock, std::chrono::milliseconds(opt_.watch_poll_ms));
    if (stop_.load()) return;
    lock.unlock();
    store_.poll(opt_.watch_dir);
    lock.lock();
  }
}

void Server::export_loop() {
  // Puffer's log-reporter pattern: a sidecar loop that periodically posts
  // the process's metric snapshot to the structured sink, so a long-lived
  // daemon leaves a queryable time series rather than only an exit dump.
  const auto started = std::chrono::steady_clock::now();
  telemetry::Gauge& uptime = telemetry::Registry::instance().gauge(
      "serve.uptime_s");
  std::unique_lock<std::mutex> lock(tick_mu_);
  while (!stop_.load()) {
    tick_cv_.wait_for(lock, std::chrono::seconds(opt_.metrics_interval_s));
    if (stop_.load()) return;
    lock.unlock();
    uptime.set(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             started)
                   .count());
    if (telemetry::logging_enabled()) {
      auto fields = telemetry::snapshot_fields(
          telemetry::Registry::instance().snapshot());
      fields.emplace(fields.begin(), "policy_version",
                     static_cast<std::int64_t>(store_.current()->version));
      telemetry::log_event("serve_metrics", 0, fields);
    }
    lock.lock();
  }
}

void Server::send_all(Connection& conn, std::string_view bytes) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (!conn.open.load()) return;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a client that hung up mid-request yields EPIPE here
    // instead of a process-killing SIGPIPE.
    const ssize_t n = ::send(conn.fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      conn.open.store(false);
      telemetry::Registry::instance().counter("serve.dropped_responses").add();
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace serve
