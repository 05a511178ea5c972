#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "netgym/rng.hpp"
#include "netgym/telemetry.hpp"

namespace serve {

namespace telemetry = netgym::telemetry;
using Clock = std::chrono::steady_clock;
constexpr int kOne = 1;  ///< setsockopt's "on"

namespace {

/// A process-wide sum published as a gauge (a Gauge can only be set); the
/// lock keeps the last published value the true sum.
struct GaugeSum {
  explicit GaugeSum(const char* name)
      : gauge(telemetry::Registry::instance().gauge(name)) {}
  void add(std::int64_t delta) {
    std::lock_guard<std::mutex> lock(mu);
    gauge.set(static_cast<double>(sum += delta));
  }
  telemetry::Gauge& gauge;
  std::mutex mu;
  std::int64_t sum = 0;
};

/// serve.sessions: live session states over all shards.
GaugeSum& live_sessions() {
  static GaugeSum sum("serve.sessions");
  return sum;
}

/// serve.outbound_bytes: responses queued on connections, not yet sent.
GaugeSum& outbound_bytes() {
  static GaugeSum sum("serve.outbound_bytes");
  return sum;
}

void count(const char* counter) {
  telemetry::Registry::instance().counter(counter).add();
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

bool would_block() {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

}  // namespace

Server::Connection::~Connection() {
  outbound_bytes().add(-static_cast<std::int64_t>(out.size()));
  if (fd >= 0) ::close(fd);
}

bool Server::Connection::send(std::string_view bytes) {
  std::lock_guard<std::mutex> lock(mu);
  const bool was_empty = out.empty();
  if (!closed.load() && was_empty) {
    // MSG_NOSIGNAL: a vanished client yields EPIPE, not a fatal SIGPIPE.
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0 && !would_block()) close_locked();
    bytes.remove_prefix(n > 0 ? static_cast<std::size_t>(n) : 0);
  }
  if (closed.load()) count("serve.dropped_responses");
  if (closed.load() || bytes.empty()) return false;
  out.append(bytes);
  outbound_bytes().add(static_cast<std::int64_t>(bytes.size()));
  if (out.size() > kMaxOutboundBytes) {
    count("serve.evicted_connections");
    close_locked();
    return false;
  }
  return was_empty;
}

void Server::Connection::flush() {
  std::lock_guard<std::mutex> lock(mu);
  if (closed.load() || out.empty()) return;
  const ssize_t n =
      ::send(fd, out.data(), out.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
  if (n < 0 && !would_block()) close_locked();
  if (n <= 0) return;
  out.erase(0, static_cast<std::size_t>(n));
  outbound_bytes().add(-static_cast<std::int64_t>(n));
}

void Server::Connection::close_locked() {
  if (closed.exchange(true)) return;
  outbound_bytes().add(-static_cast<std::int64_t>(out.size()));
  std::string().swap(out);
  // Shut down but do NOT close: the fd closes in ~Connection when the last
  // shared_ptr drops, so a write never lands on a recycled descriptor.
  ::shutdown(fd, SHUT_RDWR);
}

Server::Server(ServerOptions options) : opt_(std::move(options)) {
  if (opt_.shards < 1) throw std::invalid_argument("Server: shards must be >= 1");
  if (opt_.batch_max < 1) {
    throw std::invalid_argument("Server: batch_max must be >= 1");
  }
  if (opt_.batch_window_us < 0 || opt_.watch_poll_ms < 1) {
    throw std::invalid_argument("Server: bad batching/watch options");
  }
  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("Server: pipe() failed");
  }
}

Server::~Server() {
  stop();
  for (const int fd : wake_fds_) ::close(fd);
}

void Server::start() {
  if (running_.load()) throw std::runtime_error("Server: already started");
  if (store_.current() == nullptr) {
    throw std::runtime_error("Server: no policy loaded (load a checkpoint "
                             "into store() before start)");
  }
  stop_.store(false);
  const bool on_unix = !opt_.unix_path.empty();
  const std::string where =
      on_unix ? opt_.unix_path : "127.0.0.1:" + std::to_string(opt_.tcp_port);
  sockaddr_un un{};
  sockaddr_in in{};
  if (on_unix) {
    if (opt_.unix_path.size() >= sizeof(un.sun_path)) {
      throw std::runtime_error("unix socket path too long: " + opt_.unix_path);
    }
    un.sun_family = AF_UNIX;
    std::strncpy(un.sun_path, opt_.unix_path.c_str(), sizeof(un.sun_path) - 1);
    ::unlink(opt_.unix_path.c_str());  // stale socket from a previous run
  } else {
    in.sin_family = AF_INET;
    in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    in.sin_port = htons(static_cast<std::uint16_t>(opt_.tcp_port));
  }
  auto* addr = on_unix ? reinterpret_cast<sockaddr*>(&un)
                       : reinterpret_cast<sockaddr*>(&in);
  socklen_t len = on_unix ? sizeof(un) : sizeof(in);
  if ((listen_fd_ = ::socket(addr->sa_family, SOCK_STREAM, 0)) < 0 ||
      (!on_unix && ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &kOne,
                                sizeof(kOne)) < 0) ||
      ::bind(listen_fd_, addr, len) < 0 || ::listen(listen_fd_, 512) < 0 ||
      ::getsockname(listen_fd_, addr, &len) < 0) {
    const std::string reason = std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Server: cannot listen on " + where + ": " +
                             reason);
  }
  port_ = on_unix ? 0 : ntohs(in.sin_port);
  // A connection reset between poll() and accept() must not block accept().
  ::fcntl(listen_fd_, F_SETFL, ::fcntl(listen_fd_, F_GETFL) | O_NONBLOCK);

  // Registered up front, so a scrape shows the bounds at zero.
  telemetry::Registry& reg = telemetry::Registry::instance();
  reg.counter("serve.evicted_connections");
  reg.counter("serve.accept_errors");
  outbound_bytes();

  shards_.clear();
  for (int s = 0; s < opt_.shards; ++s) {
    Shard& shard = *shards_.emplace_back(std::make_unique<Shard>());
    shard.worker = std::thread([this, &shard] { shard_loop(shard); });
  }
  io_thread_ = std::thread([this] { io_loop(); });
  running_.store(true);
}

void Server::stop() {
  // One caller performs the teardown; concurrent callers (e.g. a signal
  // handler path racing the destructor) block here until it is complete.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stop_.exchange(true)) return;

  // The I/O thread must be gone before the shards drain, so no request can
  // arrive behind a worker's final pass.
  wake();
  if (io_thread_.joinable()) io_thread_.join();
  std::int64_t dropped_sessions = 0;
  for (auto& shard : shards_) {
    shard->cv.notify_all();
    if (shard->worker.joinable()) shard->worker.join();
    dropped_sessions += static_cast<std::int64_t>(shard->sessions.size());
    shard->sessions.clear();
  }
  if (dropped_sessions != 0) live_sessions().add(-dropped_sessions);
  if (!opt_.unix_path.empty()) ::unlink(opt_.unix_path.c_str());
  running_.store(false);
}

void Server::wake() {
  const char byte = 0;
  (void)!::write(wake_fds_[1], &byte, 1);  // EAGAIN: a wake is pending
}

void Server::io_loop() {
  constexpr auto kNever = Clock::time_point::max();
  telemetry::Registry& reg = telemetry::Registry::instance();
  const auto started = Clock::now();
  const std::chrono::milliseconds watch_every(opt_.watch_poll_ms);
  const std::chrono::seconds export_every(opt_.metrics_interval_s);
  auto next_watch = opt_.watch_dir.empty() ? kNever : started + watch_every;
  auto next_export =
      opt_.metrics_interval_s > 0 ? started + export_every : kNever;
  // After an accept() error (say, out of fds) the listener sits out until a
  // connection closes or this passes: no spinning, and no end to accepting.
  auto accept_paused_until = Clock::time_point::min();
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<pollfd> fds;

  while (!stop_.load()) {
    // The ticks are checked after every wake, not only on a poll timeout.
    auto now = Clock::now();
    if (now >= next_watch) {
      store_.poll(opt_.watch_dir);
      next_watch = (now = Clock::now()) + watch_every;
    }
    if (now >= next_export) {
      // Log-reporter pattern: a time series of metrics, not just an exit dump.
      reg.gauge("serve.uptime_s").set(seconds(now - started));
      if (telemetry::logging_enabled()) {
        auto fields = telemetry::snapshot_fields(reg.snapshot());
        fields.emplace(fields.begin(), "policy_version",
                       static_cast<std::int64_t>(store_.current()->version));
        telemetry::log_event("serve_metrics", 0, fields);
      }
      next_export = now + export_every;
    }
    const bool accepting = now >= accept_paused_until;
    fds.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    fds.push_back({accepting ? listen_fd_ : -1, POLLIN, 0});
    for (const auto& conn : conns) {
      std::lock_guard<std::mutex> lock(conn->mu);
      const short events = conn->out.empty() ? POLLIN : POLLIN | POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }
    const auto next = std::min(
        {next_watch, next_export, accepting ? kNever : accept_paused_until});
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(std::min<
        Clock::duration>(next - now, std::chrono::milliseconds(INT_MAX)));
    if (::poll(fds.data(), fds.size(),
               next == kNever ? -1 : static_cast<int>(wait.count())) <= 0) {
      continue;
    }
    char drain[64];  // what it leaves wakes the next poll at once
    if (fds[0].revents != 0) (void)!::read(wake_fds_[0], drain, sizeof(drain));

    // The connections polled this round; accepted ones join the next.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const std::shared_ptr<Connection>& conn = conns[i];
      const short revents = fds[i + 2].revents;
      if ((revents & POLLOUT) != 0) conn->flush();
      // A shard closes a connection it evicted or could not write to.
      if (!conn->closed.load() &&
          ((revents & (POLLIN | POLLHUP | POLLERR)) == 0 || read_from(conn))) {
        conns[kept++].swap(conns[i]);  // dropped ones collect past `kept`
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->close_locked();
      }
      // Behind the connection's last request on every shard; ends sessions.
      for (auto& shard : shards_) {
        enqueue(*shard, {.conn = conn, .kind = Pending::Kind::kGone});
      }
      accept_paused_until = Clock::time_point::min();  // an fd came free
    }
    conns.resize(kept);

    while ((fds[1].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (would_block()) break;
        const bool aborted = errno == ECONNABORTED;  // that peer is gone
        count("serve.accept_errors");
        if (aborted) continue;
        accept_paused_until = Clock::now() + std::chrono::milliseconds(100);
        break;
      }
      if (opt_.unix_path.empty()) {
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &kOne, sizeof(kOne));
      }
      conns.push_back(std::make_shared<Connection>());
      conns.back()->fd = fd;
      count("serve.connections");
    }
  }
  ::close(std::exchange(listen_fd_, -1));  // the listener is this thread's
}

bool Server::read_from(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
  if (n <= 0) return n < 0 && would_block();  // 0: the peer hung up
  conn->reader.feed(buf, static_cast<std::size_t>(n));
  try {
    while (auto body = conn->reader.next()) handle_frame(conn, *body);
  } catch (const ProtocolError& e) {
    // The byte stream is unrecoverable (bad prefix / unknown type):
    // explain, then hang up. Semantic errors never land here.
    count("serve.protocol_errors");
    std::string out;
    encode_error(out, e.what());
    conn->send(out);
    return false;
  }
  return true;
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          std::string_view body) {
  Pending item{.conn = conn};
  switch (type_of(body)) {
    case MsgType::kHello: {
      const auto policy = store_.current();
      std::string out;
      encode_hello_ok(out, {kProtocolVersion,
                            static_cast<std::uint32_t>(policy->obs_size()),
                            static_cast<std::uint32_t>(policy->action_count()),
                            policy->version});
      conn->send(out);  // the next poll picks up any unsent rest
      return;
    }
    case MsgType::kAct: {
      ActRequest req = decode_act(body);
      item.session_id = req.session_id;
      item.obs = std::move(req.obs);
      break;
    }
    case MsgType::kClose:
      item.kind = Pending::Kind::kClose;
      item.session_id = decode_close(body);
      break;
    default:
      throw ProtocolError("unexpected server-bound message type");
  }
  item.arrival = Clock::now();
  // Sessions are pinned to shards by their id, so one shard owns all of a
  // session's state and requests for it stay FIFO.
  enqueue(*shards_[std::hash<std::uint64_t>{}(item.session_id) %
                   shards_.size()],
          std::move(item));
}

void Server::enqueue(Shard& shard, Pending&& item) {
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
  // return of the handoff that carries the response). The four durations sum
  // to serve.phase.total_s per request by construction.
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
    Clock::time_point sent;
  };
  std::vector<Outbox> outboxes;
  // The batch's answered acts: arrival time and the outbox that carries it.
  struct Acted {
    Clock::time_point arrival;
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
      shard.cv.wait_for(
          lock, std::chrono::microseconds(opt_.batch_window_us), [&] {
            return stop_.load() ||
                   static_cast<int>(shard.queue.size()) >= opt_.batch_max;
          });
      while (!shard.queue.empty() &&
             static_cast<int>(batch.size()) < opt_.batch_max) {
        batch.push_back(std::move(shard.queue.front()));
        shard.queue.pop_front();
      }
    }
    // One drain timestamp covers the whole batch: everything queued behind
    // it left the shard queue at this instant.
    const auto drained = Clock::now();

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
      if (item.obs.size() != obs_size) continue;  // closes carry no row
      rows.insert(rows.end(), item.obs.begin(), item.obs.end());
      ++n;
    }
    Clock::time_point forward_start, forward_end;
    if (n > 0) {
      rngs.assign(n, &greedy_rng);
      actions.resize(n);
      forward_start = Clock::now();
      policy->act_batch(rows.data(), n, rngs.data(), actions.data());
      forward_end = Clock::now();
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
      const auto conn = reinterpret_cast<std::uintptr_t>(item.conn.get());
      if (item.kind == Pending::Kind::kGone) {
        // The connection's requests are all behind us, and its address stays
        // taken while this item holds it, so these keys are all its own.
        const auto first = shard.sessions.lower_bound({conn, 0});
        const auto last = shard.sessions.upper_bound({conn, UINT64_MAX});
        session_delta -= std::distance(first, last);
        shard.sessions.erase(first, last);
        continue;
      }
      std::size_t box = 0;
      while (box < used && outboxes[box].conn != item.conn.get()) ++box;
      if (box == used) {
        if (used == outboxes.size()) outboxes.emplace_back();
        outboxes[used].conn = item.conn.get();
        outboxes[used].bytes.clear();
        ++used;
      }
      std::string& out = outboxes[box].bytes;
      if (item.kind == Pending::Kind::kClose) {
        session_delta -= static_cast<std::int64_t>(
            shard.sessions.erase({conn, item.session_id}));
        encode_close_ok(out, item.session_id);
      } else if (item.obs.size() != obs_size) {
        // Semantic error: answer with a diagnostic but keep the connection
        // (the stream itself is fine).
        rejects.add();
        encode_error(out, "act: expected " + std::to_string(obs_size) +
                              " observation values, got " +
                              std::to_string(item.obs.size()));
      } else {
        session_delta += shard.sessions.insert({conn, item.session_id}).second;
        encode_act_ok(out, {item.session_id, actions[next_action++],
                            policy_version});
        acted.push_back({item.arrival, box});
      }
    }
    // Published before the writes, so a client that reads a close_ok never
    // sees the closed session still counted.
    if (session_delta != 0) live_sessions().add(session_delta);

    // One handoff per connection; a request is done when its connection's
    // handoff returns, whether the bytes went out or were queued.
    for (std::size_t b = 0; b < used; ++b) {
      if (outboxes[b].conn->send(outboxes[b].bytes)) wake();
      writes.add();
      outboxes[b].sent = Clock::now();
    }

    requests.add(static_cast<std::int64_t>(acted.size()));
    for (const Acted& request : acted) {
      const auto done = outboxes[request.box].sent;
      phase_queue.record(seconds(drained - request.arrival));
      phase_batch.record(seconds(forward_start - drained));
      phase_forward.record(seconds(forward_end - forward_start));
      phase_write.record(seconds(done - forward_end));
      phase_total.record(seconds(done - request.arrival));
    }
  }
}

}  // namespace serve
