#include "netgym/exposition.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace netgym::telemetry {

namespace {

/// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; registry names use
/// dots ("serve.phase.forward_s"), so map every illegal character to '_'.
std::string sanitize_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

void append_value(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // Prometheus 0.0.4 spells non-finite values out; also keeps the integer
    // fast path below from casting NaN/Inf to i64 (undefined behavior).
    out += std::isnan(v) ? "NaN" : (v > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buf[40];
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<std::int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

void append_sample(std::string& out, const std::string& name,
                   const char* labels, double v) {
  out += name;
  out += labels;
  out += ' ';
  append_value(out, v);
  out += '\n';
}

void append_summary(std::string& out, const std::string& name,
                    const Histogram::Snapshot& h) {
  out += "# TYPE " + name + " summary\n";
  if (h.count > 0) {
    append_sample(out, name, "{quantile=\"0.5\"}", h.p50);
    append_sample(out, name, "{quantile=\"0.9\"}", h.p90);
    append_sample(out, name, "{quantile=\"0.99\"}", h.p99);
    append_sample(out, name, "{quantile=\"0.999\"}", h.p999);
  }
  append_sample(out, name + "_sum", "", h.count > 0 ? h.sum : 0.0);
  append_sample(out, name + "_count", "",
                static_cast<double>(h.count > 0 ? h.count : 0));
}

}  // namespace

std::string render_prometheus(const std::vector<Registry::Entry>& entries) {
  std::string out;
  out.reserve(64 + 128 * entries.size());
  for (const auto& e : entries) {
    const std::string name = sanitize_name(e.name);
    switch (e.kind) {
      case Registry::Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        append_sample(out, name, "", e.value);
        break;
      case Registry::Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        append_sample(out, name, "", e.value);
        break;
      case Registry::Kind::kHistogram:
        append_summary(out, name, e.hist);
        break;
    }
  }
  return out;
}

std::string scrape_prometheus() {
  return render_prometheus(Registry::instance().snapshot());
}

void MetricsEndpoint::start(int port) {
  if (running()) throw std::runtime_error("metrics endpoint already running");
  // Every descriptor here is close-on-exec, so a process that forks workers
  // (dist) hands them none of the endpoint's. The listener is non-blocking:
  // a client that resets between poll() and accept() must not block the
  // loop (and with it stop()) in accept().
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("metrics endpoint: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost-only, always
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(
        std::string("metrics endpoint: cannot listen on 127.0.0.1:") +
        std::to_string(port) + ": " + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("metrics endpoint: getsockname() failed");
  }
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    ::close(fd);
    throw std::runtime_error("metrics endpoint: pipe() failed");
  }
  fd_ = fd;
  stop_fd_ = pipe_fds[1];
  port_ = ntohs(bound.sin_port);
  const int wake_fd = pipe_fds[0];
  thread_ = std::thread([this, wake_fd] {
    serve_loop(wake_fd);
    ::close(wake_fd);
  });
}

void MetricsEndpoint::stop() {
  if (!running()) return;
  // Wake the poll() and let the accept loop exit before closing the socket.
  const char byte = 0;
  (void)!::write(stop_fd_, &byte, 1);
  thread_.join();
  ::close(stop_fd_);
  ::close(fd_);
  stop_fd_ = -1;
  fd_ = -1;
  port_ = 0;
}

void MetricsEndpoint::serve_loop(int wake_fd) {
  bool paused = false;
  for (;;) {
    // After an accept() error (say, out of fds) the listener sits out one
    // 100 ms poll: the error is counted and retried, never spun on.
    pollfd fds[2];
    fds[0] = {paused ? -1 : fd_, POLLIN, 0};
    fds[1] = {wake_fd, POLLIN, 0};
    if (::poll(fds, 2, paused ? 100 : -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    paused = false;
    if ((fds[1].revents & POLLIN) != 0) return;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn =
        ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        Registry::instance().counter("metrics.accept_errors").add();
        paused = true;
      }
      continue;
    }
    // One 2 s deadline per request covers the head and the response, and
    // the wake pipe is polled alongside: a stalled or trickling scraper is
    // dropped at the deadline and never holds stop().
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    const auto ready = [&](short events) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd p[2] = {{conn, events, 0}, {wake_fd, POLLIN, 0}};
      return left.count() > 0 &&
             ::poll(p, 2, static_cast<int>(left.count())) > 0 &&
             p[1].revents == 0;  // a wake drops the request; the loop exits
    };
    const auto retry = [] { return errno == EAGAIN || errno == EINTR; };
    // Drain the request head (best-effort: stop at the blank line or once
    // 4 KiB arrived); the response is the same regardless of path or verb.
    char buf[4096];
    std::size_t got = 0;
    while (got < sizeof(buf) && ready(POLLIN)) {
      const ssize_t n = ::recv(conn, buf + got, sizeof(buf) - got, 0);
      if (n < 0 && retry()) continue;
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
      if (std::string_view(buf, got).find("\r\n\r\n") !=
          std::string_view::npos) {
        break;
      }
    }
    const std::string body = scrape_prometheus();
    std::string resp =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    std::size_t sent = 0;
    while (sent < resp.size() && ready(POLLOUT)) {
      // MSG_NOSIGNAL, never raw write: the host may be `genet train`, which
      // does not ignore SIGPIPE, and a scraper hanging up mid-response must
      // not kill a training run.
      const ssize_t n = ::send(conn, resp.data() + sent, resp.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && retry()) continue;
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(conn);
  }
}

}  // namespace netgym::telemetry
