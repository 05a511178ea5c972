#include "dist/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "dist/protocol.hpp"
#include "netgym/checkpoint.hpp"
#include "netgym/telemetry.hpp"
#include "netgym/tracing.hpp"
#include "nn/gemm.hpp"

namespace dist {

namespace {

namespace tel = netgym::telemetry;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void log_worker_event(std::size_t index, pid_t pid, const char* event) {
  if (tel::logging_enabled()) {
    tel::log_event("dist_worker", static_cast<std::int64_t>(index),
                   {{"pid", static_cast<std::int64_t>(pid)},
                    {"event", std::string(event)}});
  }
}

}  // namespace

Coordinator::Coordinator(const Options& options) : options_(options) {
  if (options_.workers < 1) {
    throw std::invalid_argument("dist: workers must be >= 1");
  }
  if (options_.worker_exe.empty()) {
    throw std::invalid_argument("dist: worker_exe must be set");
  }
  if (options_.timeout_ms < 1) {
    throw std::invalid_argument("dist: timeout_ms must be >= 1");
  }
  // Observational only: the id correlates trace lanes across processes and
  // never feeds any computation, so it may come from the wall clock.
  trace_id_ = (static_cast<std::uint64_t>(::getpid()) << 32) ^
              static_cast<std::uint64_t>(netgym::tracing::now_ns());
  workers_.resize(static_cast<std::size_t>(options_.workers));
  for (std::size_t i = 0; i < workers_.size(); ++i) spawn_worker(i);
  exchange_hellos();
}

Coordinator::~Coordinator() {
  if (hooks_installed_) {
    genet::set_gap_eval_hook(nullptr);
    genet::set_train_model_hook(nullptr);
  }
  // Graceful first: a shutdown frame, then the closed socket, then SIGKILL
  // for stragglers. Never throws; the send cannot block (the fd is
  // non-blocking) and is skipped behind unsent bytes, where it would tear.
  std::string shutdown;
  try {
    encode_shutdown(shutdown);
  } catch (...) {
  }
  for (WorkerProc& w : workers_) {
    if (!w.alive) continue;
    if (w.out.empty()) {
      (void)::send(w.fd, shutdown.data(), shutdown.size(), MSG_NOSIGNAL);
    }
    ::close(w.fd);
    w.fd = -1;
  }
  const std::int64_t deadline = now_ms() + 2000;
  for (WorkerProc& w : workers_) {
    if (!w.alive) continue;
    for (;;) {
      const pid_t reaped = ::waitpid(w.pid, nullptr, WNOHANG);
      if (reaped == w.pid || (reaped < 0 && errno != EINTR)) break;
      if (now_ms() >= deadline) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, nullptr, 0);
        break;
      }
      ::usleep(2000);
    }
    w.alive = false;
  }
}

int Coordinator::alive_workers() const {
  int n = 0;
  for (const WorkerProc& w : workers_) n += w.alive ? 1 : 0;
  return n;
}

std::vector<pid_t> Coordinator::worker_pids() const {
  std::vector<pid_t> pids;
  for (const WorkerProc& w : workers_) {
    if (w.alive) pids.push_back(w.pid);
  }
  return pids;
}

void Coordinator::spawn_worker(std::size_t index) {
  // Close-on-exec, so no later worker inherits this worker's socket; the
  // child clears the flag on its own end only.
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw std::runtime_error(std::string("dist: socketpair failed: ") +
                             std::strerror(errno));
  }
  // Materialize argv before fork: the child must only fcntl/exec/_exit
  // (threads from the netgym pool may hold locks at fork time).
  std::vector<std::string> args;
  args.push_back(options_.worker_exe);
  args.insert(args.end(), options_.worker_args.begin(),
              options_.worker_args.end());
  args.push_back("--dist-fd");
  args.push_back(std::to_string(sv[1]));
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw std::runtime_error(std::string("dist: fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    ::fcntl(sv[1], F_SETFD, 0);
    ::execv(options_.worker_exe.c_str(), argv.data());
    _exit(127);
  }
  ::close(sv[1]);
  ::fcntl(sv[0], F_SETFL, ::fcntl(sv[0], F_GETFL) | O_NONBLOCK);
  WorkerProc& w = workers_[index];
  w.pid = pid;
  w.fd = sv[0];
  w.alive = true;
  tel::Registry::instance().counter("dist.spawns").add();
  log_worker_event(index, pid, "spawn");
}

void Coordinator::exchange_hellos() {
  Hello hello;
  hello.math_mode = nn::math_mode_name(nn::math_mode());
  hello.threads = options_.threads_per_worker;
  hello.trace_id = trace_id_;
  hello.trace_enabled = netgym::tracing::enabled() ? 1 : 0;
  hello.trace_capacity =
      static_cast<std::int64_t>(netgym::tracing::kDefaultBufferCapacity);
  hello.trace_ship_max_bytes = options_.trace_ship_max_bytes;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    hello.worker_ordinal = static_cast<std::int64_t>(i);
    std::string frame;
    encode_hello(frame, hello);
    send_to(workers_[i], frame);
  }
  const auto waiting = [this] {
    return std::any_of(workers_.begin(), workers_.end(),
                       [](const WorkerProc& w) {
                         return w.alive && !w.saw_hello;
                       });
  };
  const std::int64_t deadline = now_ms() + options_.timeout_ms;
  while (waiting()) {
    if (now_ms() >= deadline) {
      for (WorkerProc& w : workers_) {
        if (!w.saw_hello) destroy_worker(w, "hello timeout");
      }
      break;
    }
    pump(deadline - now_ms(), [this](std::size_t i, const std::string& body) {
      const HelloOk ok = decode_hello_ok(body);
      if (ok.version != kDistProtocolVersion) {
        throw std::runtime_error(
            "dist: worker protocol version " + std::to_string(ok.version) +
            " != coordinator " + std::to_string(kDistProtocolVersion));
      }
      workers_[i].saw_hello = true;
    });
  }
  if (alive_workers() == 0) {
    throw std::runtime_error(
        "dist: no worker completed the hello handshake (exe '" +
        options_.worker_exe + "')");
  }
}

void Coordinator::destroy_worker(WorkerProc& worker, const char* reason) {
  if (!worker.alive) return;
  worker.alive = false;
  ::kill(worker.pid, SIGKILL);
  ::close(worker.fd);
  worker.fd = -1;
  worker.out.clear();
  while (::waitpid(worker.pid, nullptr, 0) < 0 && errno == EINTR) {
  }
  tel::Registry::instance().counter("dist.worker_deaths").add();
  if (netgym::tracing::enabled()) {
    // The dead worker's unshipped spans are gone; the merged trace stays
    // valid (its shipped batches are already registered) but the loss is
    // counted so an operator can see the gap is real, not a bug.
    tel::Registry::instance().counter("dist.trace_batches_lost").add();
  }
  log_worker_event(
      static_cast<std::size_t>(&worker - workers_.data()), worker.pid,
      reason);
  if (worker.unit >= 0) {
    const std::size_t unit = static_cast<std::size_t>(worker.unit);
    worker.unit = -1;
    if (attempts_[unit] >= options_.max_attempts) {
      throw std::runtime_error("dist: work unit " + std::to_string(unit) +
                               " failed after " +
                               std::to_string(attempts_[unit]) + " attempts");
    }
    pending_.push_front(unit);
    ++reassigned_;
    tel::Registry::instance().counter("dist.reassigned").add();
    if (tel::logging_enabled()) {
      tel::log_event(
          "dist_reassign", static_cast<std::int64_t>(unit),
          {{"worker",
            static_cast<std::int64_t>(&worker - workers_.data())},
           {"pid", static_cast<std::int64_t>(worker.pid)},
           {"attempt", static_cast<std::int64_t>(attempts_[unit])}});
    }
  }
}

void Coordinator::send_to(WorkerProc& worker, const std::string& bytes) {
  if (!worker.alive) return;
  worker.out += bytes;
  flush(worker);
}

void Coordinator::flush(WorkerProc& worker) {
  while (worker.alive && !worker.out.empty()) {
    const ssize_t n = ::send(worker.fd, worker.out.data(), worker.out.size(),
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0) {
      destroy_worker(worker, "send failed");
      return;
    }
    worker.out.erase(0, static_cast<std::size_t>(n));
  }
}

void Coordinator::pump(std::int64_t wait_ms, const BodyHandler& on_body) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> fd_owner;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerProc& w = workers_[i];
    if (!w.alive) continue;
    const short events = w.out.empty() ? POLLIN : POLLIN | POLLOUT;
    fds.push_back(pollfd{w.fd, events, 0});
    fd_owner.push_back(i);
  }
  const int wait = static_cast<int>(std::clamp<std::int64_t>(wait_ms, 0, 500));
  if (::poll(fds.data(), fds.size(), wait) < 0 && errno != EINTR) {
    throw std::runtime_error(std::string("dist: poll failed: ") +
                             std::strerror(errno));
  }
  for (std::size_t k = 0; k < fds.size(); ++k) {
    WorkerProc& w = workers_[fd_owner[k]];
    if ((fds[k].revents & POLLOUT) != 0) flush(w);
    if (!w.alive || (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    char buf[64 * 1024];
    const ssize_t got = ::read(w.fd, buf, sizeof buf);
    if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (got <= 0) {
      destroy_worker(w, "socket eof");
      continue;
    }
    w.reader.feed(buf, static_cast<std::size_t>(got));
    try {
      while (const auto body = w.reader.next()) {
        // A worker-reported error is fatal: the request fails identically
        // on every worker, so reassigning would just loop.
        if (serve::type_of(*body) == serve::MsgType::kError) {
          throw std::runtime_error("dist worker error: " +
                                   serve::decode_error(*body));
        }
        on_body(fd_owner[k], *body);
      }
    } catch (const serve::ProtocolError&) {
      destroy_worker(w, "malformed frame");
    } catch (const netgym::checkpoint::CheckpointError&) {
      destroy_worker(w, "malformed frame");
    }
  }
  std::size_t queued = 0;
  for (const WorkerProc& w : workers_) queued += w.out.size();
  tel::Registry::instance().gauge("dist.outbound_bytes").set(
      static_cast<double>(queued));
}

void Coordinator::maybe_inject_kill(std::size_t index) {
  if (kill_injected_ || index != 0) return;
  if (options_.kill_worker0_after_sends < 0) return;
  if (workers_[0].sends < options_.kill_worker0_after_sends) return;
  kill_injected_ = true;
  tel::Registry::instance().counter("dist.test_kills").add();
  // SIGKILL only: the death is discovered through the normal EOF/EPIPE
  // path, so the test exercises exactly what a real crash would. Fired
  // after the Nth unit is claimed but before its bytes are queued (the
  // call site precedes send_to), so the unit is guaranteed stranded --
  // killing after the send would race against a fast worker finishing.
  ::kill(workers_[0].pid, SIGKILL);
}

void Coordinator::register_remote_spans(std::size_t worker_index,
                                        SpanBatch batch) {
  if (batch.empty() || !netgym::tracing::enabled()) return;
  auto& registry = tel::Registry::instance();
  if (batch.dropped > 0) {
    registry.counter("dist.trace_spans_dropped").add(batch.dropped);
  }
  if (batch.spans.empty()) return;
  registry.counter("dist.trace_spans_shipped")
      .add(static_cast<std::int64_t>(batch.spans.size()));
  // Spans arrive already parented: the worker stamps them from the
  // dispatch's parent_span before shipping, so a batch can never be
  // mis-attributed to whichever dispatch happens to be in flight on arrival.
  netgym::tracing::add_remote_spans(
      static_cast<std::int64_t>(workers_[worker_index].pid),
      "worker-" + std::to_string(worker_index), std::move(batch.spans));
}

void Coordinator::run_units(
    std::size_t n, std::uint64_t eval_id, const std::string& setup_frame,
    const std::function<void(std::size_t, std::string&)>& encode_unit,
    const std::function<std::size_t(std::size_t, const std::string&)>&
        on_result) {
  pending_.clear();
  for (std::size_t i = 0; i < n; ++i) pending_.push_back(i);
  attempts_.assign(n, 0);
  completed_ = 0;

  while (completed_ < n) {
    if (alive_workers() == 0) {
      throw std::runtime_error(
          "dist: all workers died with work outstanding");
    }
    // Dispatch pending units to idle workers. The deadline starts before
    // the bytes are queued, so it covers their delivery too.
    for (std::size_t i = 0; i < workers_.size() && !pending_.empty(); ++i) {
      WorkerProc& w = workers_[i];
      if (!w.alive || w.unit >= 0) continue;
      const std::size_t unit = pending_.front();
      pending_.pop_front();
      std::string frame;
      if (!setup_frame.empty() && w.setup_eval != eval_id) {
        frame = setup_frame;
        w.setup_eval = eval_id;
      }
      encode_unit(unit, frame);
      w.unit = static_cast<std::int64_t>(unit);
      w.deadline_ms = now_ms() + options_.timeout_ms;
      ++w.sends;
      ++attempts_[unit];
      maybe_inject_kill(i);
      send_to(w, frame);  // on failure the death path already requeued
    }

    // Wait for a response or the nearest deadline.
    std::int64_t nearest = now_ms() + 500;
    for (const WorkerProc& w : workers_) {
      if (w.alive && w.unit >= 0) nearest = std::min(nearest, w.deadline_ms);
    }
    pump(nearest - now_ms(), [&](std::size_t i, const std::string& body) {
      // on_result validates everything -- frame type, checkpoint CRC, field
      // shapes, unit bookkeeping -- before any state mutates; a truncated
      // or corrupt payload throws and costs the worker, not the run.
      WorkerProc& w = workers_[i];
      if (w.unit != static_cast<std::int64_t>(on_result(i, body))) {
        throw serve::ProtocolError("dist: stray result");
      }
      w.unit = -1;
      ++w.items_done;
      ++completed_;
      tel::Registry::instance().counter("dist.items").add();
    });

    // Enforce per-unit deadlines.
    const std::int64_t now = now_ms();
    for (WorkerProc& w : workers_) {
      if (w.alive && w.unit >= 0 && now >= w.deadline_ms) {
        tel::Registry::instance().counter("dist.timeouts").add();
        destroy_worker(w, "deadline exceeded");
      }
    }
  }
}

std::vector<double> Coordinator::eval_items(
    const genet::GapEvalRequest& request) {
  // The dispatch span's id travels in the setup frame so every worker span
  // shipped back can be parented under it in the merged trace.
  const std::uint64_t dispatch_span =
      netgym::tracing::enabled() ? netgym::tracing::next_span_id() : 0;
  netgym::tracing::TraceSpan span("dist.eval", "dist", -1, dispatch_span);
  const std::size_t n = request.stream_states.size();
  const std::uint64_t eval_id = ++eval_seq_;
  const std::int64_t reassigned_before = reassigned_;

  EvalSetup setup;
  setup.eval_id = eval_id;
  setup.adapter_spec = request.adapter_spec;
  setup.kind = request.kind;
  setup.baseline = request.baseline;
  setup.config = request.config;
  setup.policy_params = request.policy_params;
  setup.greedy = request.greedy ? 1 : 0;
  setup.parent_span = dispatch_span;
  std::string setup_frame;
  encode_eval_setup(setup_frame, setup);

  std::vector<double> values(n);
  std::vector<char> done(n, 0);
  run_units(
      n, eval_id, setup_frame,
      [&](std::size_t i, std::string& out) {
        ItemsRequest items;
        items.eval_id = eval_id;
        items.first = static_cast<std::int64_t>(i);
        items.streams.push_back(request.stream_states[i]);
        encode_items_request(out, items);
      },
      [&](std::size_t worker, const std::string& body) -> std::size_t {
        ItemsResult result = decode_items_result(body);
        if (result.eval_id != eval_id || result.first < 0 ||
            result.first >= static_cast<std::int64_t>(n) ||
            result.values.size() != 1 ||
            done[static_cast<std::size_t>(result.first)] != 0) {
          throw serve::ProtocolError("dist: stray items result");
        }
        const auto i = static_cast<std::size_t>(result.first);
        values[i] = result.values[0];
        done[i] = 1;
        register_remote_spans(worker, std::move(result.spans));
        return i;
      });

  tel::Registry::instance().counter("dist.evals").add();
  if (tel::logging_enabled()) {
    tel::log_event("dist_eval", static_cast<std::int64_t>(eval_id),
                   {{"items", static_cast<std::int64_t>(n)},
                    {"kind", request.kind},
                    {"reassigned", reassigned_ - reassigned_before},
                    {"workers_alive",
                     static_cast<std::int64_t>(alive_workers())}});
  }
  return values;
}

std::vector<std::vector<double>> Coordinator::train_models(
    const std::vector<genet::TrainModelRequest>& requests) {
  const std::uint64_t dispatch_span =
      netgym::tracing::enabled() ? netgym::tracing::next_span_id() : 0;
  netgym::tracing::TraceSpan span("dist.train", "dist", -1, dispatch_span);
  const std::size_t n = requests.size();
  if (n == 0) return {};
  const std::uint64_t batch_base = train_seq_;
  train_seq_ += n;
  const std::int64_t reassigned_before = reassigned_;

  std::vector<std::vector<double>> results(n);
  std::vector<char> done(n, 0);
  run_units(
      n, 0, {},
      [&](std::size_t i, std::string& out) {
        TrainRequest train;
        train.train_id = batch_base + i;
        train.adapter_spec = requests[i].adapter_spec;
        train.iterations = requests[i].iterations;
        train.seed = requests[i].seed;
        train.parent_span = dispatch_span;
        encode_train_request(out, train);
      },
      [&](std::size_t worker, const std::string& body) -> std::size_t {
        TrainResult result = decode_train_result(body);
        if (result.train_id < batch_base ||
            result.train_id >= batch_base + n) {
          throw serve::ProtocolError("dist: stray train result");
        }
        const auto i = static_cast<std::size_t>(result.train_id - batch_base);
        if (done[i] != 0) {
          throw serve::ProtocolError("dist: duplicate train result");
        }
        results[i] = result.params;
        done[i] = 1;
        register_remote_spans(worker, std::move(result.spans));
        return i;
      });

  tel::Registry::instance().counter("dist.trainings").add(
      static_cast<std::int64_t>(n));
  if (tel::logging_enabled()) {
    tel::log_event("dist_train", static_cast<std::int64_t>(batch_base),
                   {{"models", static_cast<std::int64_t>(n)},
                    {"reassigned", reassigned_ - reassigned_before},
                    {"workers_alive",
                     static_cast<std::int64_t>(alive_workers())}});
  }
  return results;
}

void Coordinator::install_hooks() {
  genet::set_gap_eval_hook(
      [this](const genet::GapEvalRequest& request) {
        return eval_items(request);
      });
  genet::set_train_model_hook(
      [this](const std::vector<genet::TrainModelRequest>& requests) {
        return train_models(requests);
      });
  hooks_installed_ = true;
}

}  // namespace dist
