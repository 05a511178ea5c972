// End-to-end tests for the serving daemon engine (serve/server.hpp): batched
// answers must equal direct greedy policy evaluation, semantic errors keep
// the connection while protocol errors drop it, a client vanishing
// mid-request must not take the server down (the no-SIGPIPE contract), and
// hot swaps must change the served version without failing a single request
// -- including the failed-swap case, where a corrupt checkpoint is skipped
// and the old policy keeps serving -- and the per-phase latency attribution
// must partition every request's end-to-end time. A batch answers in arrival
// order with one write per connection, and a full batch closes the batching
// window early. A reader too slow to take its answers is evicted without
// stalling its shard, a dropped connection ends its sessions, and the server
// runs 1 + shards threads however many clients it serves.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netgym/rng.hpp"
#include "netgym/telemetry.hpp"
#include "rl/policy.hpp"
#include "serve/client.hpp"
#include "serve/policy_store.hpp"
#include "serve/server.hpp"

namespace {

namespace fs = std::filesystem;

constexpr int kObs = 8;
constexpr int kActs = 4;

/// Fresh scratch directory per test.
fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("serve_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Deterministic policy checkpoint; different seeds give different argmaxes.
std::string write_policy(const fs::path& path, std::uint64_t seed) {
  netgym::Rng rng(seed);
  rl::MlpPolicy policy(kObs, kActs, {16, 16}, rng);
  serve::write_policy_checkpoint(policy, "test", path.string());
  return path.string();
}

std::unique_ptr<serve::Server> start_server(const std::string& checkpoint,
                                            serve::ServerOptions opt = {}) {
  auto server = std::make_unique<serve::Server>(opt);
  server->store().load_file(checkpoint);
  server->start();
  return server;
}

std::vector<double> make_obs(std::uint64_t salt) {
  std::vector<double> obs(kObs);
  netgym::Rng rng(salt + 1000);
  for (double& v : obs) v = rng.uniform(-1.0, 1.0);
  return obs;
}

TEST(ServeServer, HelloReportsPolicyShapeAndVersion) {
  const fs::path dir = test_dir("hello");
  auto server = start_server(write_policy(dir / "p.ckpt", 1));
  serve::Client client = serve::Client::connect_tcp(server->port());
  const serve::HelloResponse hello = client.hello();
  EXPECT_EQ(hello.protocol, serve::kProtocolVersion);
  EXPECT_EQ(hello.obs_size, static_cast<std::uint32_t>(kObs));
  EXPECT_EQ(hello.action_count, static_cast<std::uint32_t>(kActs));
  EXPECT_EQ(hello.policy_version, 1u);
}

TEST(ServeServer, BatchedAnswersMatchDirectGreedyPolicy) {
  // The batching shards coalesce concurrent requests into act_batch calls;
  // every served action must equal what the greedy policy computes directly
  // on the same observation bits.
  const fs::path dir = test_dir("correctness");
  const std::string ckpt = write_policy(dir / "p.ckpt", 7);
  serve::ServerOptions opt;
  opt.shards = 3;
  opt.batch_window_us = 100;
  auto server = start_server(ckpt, opt);

  // The expected actions are computed serially before the clients start:
  // act_batch writes into the policy's scratch buffers, so one reference
  // policy must not be shared across the client threads.
  constexpr int kClients = 4;
  constexpr int kPerClient = 64;
  std::vector<int> expected(kClients * kPerClient, -1);
  {
    const std::unique_ptr<rl::MlpPolicy> reference =
        serve::load_policy_checkpoint(ckpt).instantiate();
    netgym::Rng dummy(0);  // greedy argmax never draws from it
    netgym::Rng* rngs[1] = {&dummy};
    for (std::size_t sid = 0; sid < expected.size(); ++sid) {
      const std::vector<double> obs = make_obs(sid);
      reference->act_batch(obs.data(), 1, rngs, &expected[sid]);
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client = serve::Client::connect_tcp(server->port());
      for (int i = 0; i < kPerClient; ++i) {
        const std::uint64_t sid =
            static_cast<std::uint64_t>(c) * kPerClient + i;
        const std::vector<double> obs = make_obs(sid);
        const serve::ActResponse r = client.act(sid, obs.data(), obs.size());
        if (r.action != expected[sid]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServeServer, ObsSizeMismatchIsSemanticErrorConnectionSurvives) {
  const fs::path dir = test_dir("mismatch");
  auto server = start_server(write_policy(dir / "p.ckpt", 1));
  serve::Client client = serve::Client::connect_tcp(server->port());

  const std::vector<double> wrong(kObs + 3, 0.5);
  std::string out;
  serve::encode_act(out, 1, wrong.data(), wrong.size());
  client.send_raw(out);
  const std::string body = client.read_frame();
  ASSERT_EQ(serve::type_of(body), serve::MsgType::kError);
  EXPECT_NE(serve::decode_error(body).find("observation"), std::string::npos);

  // The same connection still serves valid requests afterwards.
  const std::vector<double> right = make_obs(1);
  const serve::ActResponse r = client.act(1, right.data(), right.size());
  EXPECT_GE(r.action, 0);
  EXPECT_LT(r.action, kActs);
}

TEST(ServeServer, MalformedFrameGetsErrorThenHangup) {
  const fs::path dir = test_dir("malformed");
  auto server = start_server(write_policy(dir / "p.ckpt", 1));
  serve::Client client = serve::Client::connect_tcp(server->port());

  // A well-framed body with an unknown type byte: protocol error.
  std::string frame(4, '\0');
  frame[0] = 1;  // length = 1
  frame.push_back('\x55');
  client.send_raw(frame);
  const std::string body = client.read_frame();
  EXPECT_EQ(serve::type_of(body), serve::MsgType::kError);
  // The server closes the stream after the diagnostic.
  EXPECT_THROW(client.read_frame(), std::runtime_error);

  // The server itself is unharmed.
  serve::Client again = serve::Client::connect_tcp(server->port());
  EXPECT_EQ(again.hello().policy_version, 1u);
}

TEST(ServeServer, OversizedLengthPrefixDropsConnection) {
  const fs::path dir = test_dir("oversized");
  auto server = start_server(write_policy(dir / "p.ckpt", 1));
  serve::Client client = serve::Client::connect_tcp(server->port());

  const std::uint32_t huge = serve::kMaxFrameBytes + 1;
  std::string prefix(4, '\0');
  std::memcpy(prefix.data(), &huge, 4);
  client.send_raw(prefix);
  // Error frame (if it arrives before the close) then EOF; either way the
  // connection must end rather than wait for a 128 KiB+ body.
  try {
    const std::string body = client.read_frame();
    EXPECT_EQ(serve::type_of(body), serve::MsgType::kError);
    EXPECT_THROW(client.read_frame(), std::runtime_error);
  } catch (const std::runtime_error&) {
    // Server hung up immediately -- also acceptable.
  }
  serve::Client again = serve::Client::connect_tcp(server->port());
  EXPECT_EQ(again.hello().policy_version, 1u);
}

TEST(ServeServer, ClientDisconnectMidRequestDoesNotKillServer) {
  // Pipeline a burst of requests and slam the connection shut before
  // reading any response: the shard workers will write into a dead socket.
  // MSG_NOSIGNAL + the dead-connection path must swallow that (no SIGPIPE,
  // no crash), and the server must keep serving new clients.
  const fs::path dir = test_dir("disconnect");
  auto server = start_server(write_policy(dir / "p.ckpt", 1));
  {
    serve::Client doomed = serve::Client::connect_tcp(server->port());
    const std::vector<double> obs = make_obs(0);
    std::string burst;
    for (std::uint64_t sid = 0; sid < 200; ++sid) {
      serve::encode_act(burst, sid, obs.data(), obs.size());
    }
    doomed.send_raw(burst);
  }  // ~Client closes the fd with every response still in flight

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(server->running());
  serve::Client client = serve::Client::connect_tcp(server->port());
  const std::vector<double> obs = make_obs(3);
  const serve::ActResponse r = client.act(3, obs.data(), obs.size());
  EXPECT_GE(r.action, 0);
}

TEST(ServeServer, CloseSessionDropsStateAndAnswers) {
  const fs::path dir = test_dir("close");
  auto server = start_server(write_policy(dir / "p.ckpt", 1));
  serve::Client client = serve::Client::connect_tcp(server->port());
  const std::vector<double> obs = make_obs(5);
  client.act(5, obs.data(), obs.size());
  client.close_session(5);
  // Closing a session that never existed is also answered, not an error.
  client.close_session(999);
}

TEST(ServeServer, ActThenCloseInOneBatchAnswersInOrder) {
  // An act and a close of one session, pipelined into one batch (one shard,
  // a window far longer than the two frames take to arrive), must take
  // effect and be answered in arrival order: act_ok, then close_ok, and the
  // act must not bring the closed session back.
  const fs::path dir = test_dir("act_close_order");
  serve::ServerOptions opt;
  opt.shards = 1;
  opt.batch_window_us = 20000;
  auto server = start_server(write_policy(dir / "p.ckpt", 1), opt);
  netgym::telemetry::Gauge& sessions =
      netgym::telemetry::Registry::instance().gauge("serve.sessions");
  const double sessions_before = sessions.value();

  serve::Client client = serve::Client::connect_tcp(server->port());
  const std::vector<double> obs = make_obs(5);
  std::string burst;
  serve::encode_act(burst, 5, obs.data(), obs.size());
  serve::encode_close(burst, 5);
  client.send_raw(burst);
  const std::string first = client.read_frame();
  const std::string second = client.read_frame();
  ASSERT_EQ(serve::type_of(first), serve::MsgType::kActOk);
  EXPECT_EQ(serve::decode_act_ok(first).session_id, 5u);
  ASSERT_EQ(serve::type_of(second), serve::MsgType::kCloseOk);
  EXPECT_EQ(serve::decode_close_ok(second), 5u);
  EXPECT_EQ(sessions.value(), sessions_before)
      << "the act re-created the session its close dropped";
}

/// Current value of a registry counter (the registry is process-wide, so
/// tests compare two reads).
std::int64_t counter_value(const std::string& name) {
  return netgym::telemetry::Registry::instance().counter(name).value();
}

TEST(ServeServer, PipelinedBurstIsOneWritePerConnectionPerBatch) {
  // Every batch answers its requests on one connection with one write.
  const fs::path dir = test_dir("one_write");
  serve::ServerOptions opt;
  opt.shards = 1;
  auto server = start_server(write_policy(dir / "p.ckpt", 2), opt);
  const std::int64_t writes_before = counter_value("serve.writes");
  const std::int64_t batches_before = counter_value("serve.batches");

  serve::Client client = serve::Client::connect_tcp(server->port());
  constexpr int kActsInBurst = 32;
  std::string burst;
  for (std::uint64_t sid = 0; sid < kActsInBurst; ++sid) {
    const std::vector<double> obs = make_obs(sid);
    serve::encode_act(burst, sid, obs.data(), obs.size());
  }
  client.send_raw(burst);
  for (int i = 0; i < kActsInBurst; ++i) {
    EXPECT_EQ(serve::type_of(client.read_frame()), serve::MsgType::kActOk);
  }
  server->stop();  // the shard has counted its last write once it is joined

  const std::int64_t batches = counter_value("serve.batches") - batches_before;
  EXPECT_GE(batches, 1);
  EXPECT_EQ(counter_value("serve.writes") - writes_before, batches);
}

TEST(ServeServer, FullBatchClosesTheWindowEarly) {
  // The shard sleeps through its batching window unless the batch fills:
  // the batch_max-th arrival must wake it. The first act goes alone, so the
  // shard is already inside its 2 s window when the other seven arrive.
  const fs::path dir = test_dir("full_batch");
  serve::ServerOptions opt;
  opt.shards = 1;
  opt.batch_max = 8;
  opt.batch_window_us = 2000000;
  auto server = start_server(write_policy(dir / "p.ckpt", 3), opt);
  serve::Client client = serve::Client::connect_tcp(server->port());

  std::string first;
  std::string rest;
  for (std::uint64_t sid = 0; sid < 8; ++sid) {
    const std::vector<double> obs = make_obs(sid);
    serve::encode_act(sid == 0 ? first : rest, sid, obs.data(), obs.size());
  }
  client.send_raw(first);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto sent = std::chrono::steady_clock::now();
  client.send_raw(rest);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(serve::type_of(client.read_frame()), serve::MsgType::kActOk);
  }
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - sent)
                            .count();
  EXPECT_LT(waited, 1.0) << "a full batch waited out the batching window";
}

/// Count and sum of every serve.phase.* histogram, read from the registry.
/// The registry is process-wide, so tests compare two reads.
std::map<std::string, std::pair<std::int64_t, double>> phase_totals() {
  std::map<std::string, std::pair<std::int64_t, double>> totals;
  for (const auto& entry :
       netgym::telemetry::Registry::instance().snapshot()) {
    if (entry.name.rfind("serve.phase.", 0) == 0 &&
        entry.kind == netgym::telemetry::Registry::Kind::kHistogram) {
      totals[entry.name] = {entry.hist.count, entry.hist.sum};
    }
  }
  return totals;
}

TEST(ServeServer, PhasesPartitionEveryRequest) {
  // Latency attribution (DESIGN.md S5j): every acted request records all
  // five phase histograms once, and queue + batch + forward + write add up
  // to the end-to-end total. Pipelined clients make the queue and batch
  // phases non-trivial.
  const fs::path dir = test_dir("phases");
  serve::ServerOptions opt;
  opt.shards = 2;
  auto server = start_server(write_policy(dir / "p.ckpt", 4), opt);
  auto before = phase_totals();

  constexpr int kClients = 3;
  constexpr int kPerClient = 96;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client = serve::Client::connect_tcp(server->port());
      std::string burst;
      for (int i = 0; i < kPerClient; ++i) {
        const std::uint64_t sid =
            static_cast<std::uint64_t>(c) * kPerClient + i;
        const std::vector<double> obs = make_obs(sid);
        serve::encode_act(burst, sid, obs.data(), obs.size());
      }
      client.send_raw(burst);
      for (int i = 0; i < kPerClient; ++i) {
        EXPECT_EQ(serve::type_of(client.read_frame()), serve::MsgType::kActOk);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server->stop();  // every phase is recorded once the shards have drained

  auto after = phase_totals();
  const auto delta = [&](const std::string& phase) {
    const std::string name = "serve.phase." + phase + "_s";
    return std::make_pair(after[name].first - before[name].first,
                          after[name].second - before[name].second);
  };
  const auto total = delta("total");
  EXPECT_EQ(total.first, kClients * kPerClient);
  double parts = 0.0;
  for (const char* phase : {"queue", "batch", "forward", "write"}) {
    const auto d = delta(phase);
    EXPECT_EQ(d.first, total.first) << phase;
    parts += d.second;
  }
  EXPECT_GT(total.second, 0.0);
  EXPECT_NEAR(parts, total.second, 0.02 * total.second)
      << "phase sums no longer partition the end-to-end time";
}

TEST(ServeServer, SlowReaderDoesNotStallItsShard) {
  // A client that pipelines acts and never reads fills its socket, then its
  // outbound buffer. The one shard must keep serving everyone else, and the
  // slow client is evicted once its buffer passes the bound.
  const fs::path dir = test_dir("slow_reader");
  serve::ServerOptions opt;
  opt.shards = 1;
  auto server = start_server(write_policy(dir / "p.ckpt", 1), opt);
  const std::int64_t evicted_before =
      counter_value("serve.evicted_connections");

  const int slow = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(slow, 0);
  const int small = 4096;
  ::setsockopt(slow, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  const timeval io_timeout{5, 0};
  ::setsockopt(slow, SOL_SOCKET, SO_SNDTIMEO, &io_timeout, sizeof(io_timeout));
  ::setsockopt(slow, SOL_SOCKET, SO_RCVTIMEO, &io_timeout, sizeof(io_timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server->port()));
  ASSERT_EQ(::connect(slow, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Pipeline bursts, each once the shard has answered all but the last
  // burst, so the queue stays short and its depth cannot be what delays the
  // other client below.
  constexpr int kBurst = 1000;
  std::string burst;
  const std::vector<double> obs = make_obs(9);
  for (std::uint64_t sid = 0; sid < kBurst; ++sid) {
    serve::encode_act(burst, sid, obs.data(), obs.size());
  }
  const std::int64_t answered_before = counter_value("serve.requests");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::int64_t sent = 0;
  while (counter_value("serve.evicted_connections") == evicted_before &&
         std::chrono::steady_clock::now() < deadline && sent < 1000000) {
    if (::send(slow, burst.data(), burst.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(burst.size())) {
      break;
    }
    sent += kBurst;
    while (counter_value("serve.requests") - answered_before < sent - kBurst &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  EXPECT_GT(counter_value("serve.evicted_connections"), evicted_before)
      << "no eviction after " << sent << " pipelined acts";

  serve::Client other = serve::Client::connect_tcp(server->port());
  ::setsockopt(other.fd(), SOL_SOCKET, SO_RCVTIMEO, &io_timeout,
               sizeof(io_timeout));
  const auto asked = std::chrono::steady_clock::now();
  try {
    EXPECT_GE(other.act(1, obs.data(), obs.size()).action, 0);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "the other client's act failed: " << e.what();
  }
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          asked)
                .count(),
            1.0)
      << "the slow reader stalled its shard";

  // The evicted client reads what the kernel already held, then the end of
  // the stream (or a reset, when some of its requests were still unread).
  char buf[64 * 1024];
  ssize_t got = 0;
  while ((got = ::recv(slow, buf, sizeof(buf), 0)) > 0) {
  }
  EXPECT_TRUE(got == 0 || errno == ECONNRESET)
      << "the slow client was never hung up on: " << std::strerror(errno);
  ::close(slow);
}

TEST(ServeServer, DisconnectEndsItsSessions) {
  const fs::path dir = test_dir("disconnect_sessions");
  auto server = start_server(write_policy(dir / "p.ckpt", 1));
  netgym::telemetry::Gauge& sessions =
      netgym::telemetry::Registry::instance().gauge("serve.sessions");
  const double sessions_before = sessions.value();
  {
    serve::Client client = serve::Client::connect_tcp(server->port());
    for (std::uint64_t sid = 0; sid < 50; ++sid) {
      const std::vector<double> obs = make_obs(sid);
      client.act(sid, obs.data(), obs.size());
    }
    EXPECT_EQ(sessions.value(), sessions_before + 50);
  }  // gone without closing any session
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sessions.value() != sessions_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(sessions.value(), sessions_before)
      << "a dropped connection leaked its sessions";
}

/// Threads of this process.
std::size_t thread_count() {
  return static_cast<std::size_t>(std::distance(
      fs::directory_iterator("/proc/self/task"), fs::directory_iterator()));
}

TEST(ServeServer, RunsOnePlusShardsThreadsWhateverItServes) {
  const fs::path dir = test_dir("threads");
  write_policy(dir / "policy_v1.ckpt", 1);
  serve::ServerOptions opt;
  opt.shards = 3;
  opt.watch_dir = dir.string();
  opt.watch_poll_ms = 10;
  opt.metrics_interval_s = 1;
  const std::size_t before = thread_count();
  auto server = std::make_unique<serve::Server>(opt);
  server->store().load_latest(dir.string());
  server->start();
  std::vector<serve::Client> clients;
  for (int c = 0; c < 5; ++c) {
    clients.push_back(serve::Client::connect_tcp(server->port()));
    EXPECT_EQ(clients.back().hello().policy_version, 1u);
  }
  EXPECT_EQ(thread_count(), before + 1 + 3);
}

TEST(ServeServer, HotSwapChangesServedVersionWithZeroFailures) {
  const fs::path dir = test_dir("hotswap");
  write_policy(dir / "policy_v1.ckpt", 1);
  serve::ServerOptions opt;
  opt.watch_dir = dir.string();
  opt.watch_poll_ms = 10;
  auto server = std::make_unique<serve::Server>(opt);
  server->store().load_latest(dir.string());
  server->start();

  serve::Client client = serve::Client::connect_tcp(server->port());
  const std::vector<double> obs = make_obs(1);
  EXPECT_EQ(client.act(1, obs.data(), obs.size()).policy_version, 1u);

  // Drop v2 with the atomic-rename contract the trainer uses.
  write_policy(dir / "policy_v2.ckpt.tmp", 2);
  fs::rename(dir / "policy_v2.ckpt.tmp", dir / "policy_v2.ckpt");

  // Keep issuing requests; every one must succeed, and the served version
  // must move to 2 within a few poll intervals.
  std::uint32_t seen = 1;
  for (int i = 0; i < 500 && seen != 2; ++i) {
    const serve::ActResponse r = client.act(1, obs.data(), obs.size());
    seen = r.policy_version;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(server->store().current()->version, 2u);

  // Served actions now match the v2 policy directly.
  const std::unique_ptr<rl::MlpPolicy> v2 =
      serve::load_policy_checkpoint((dir / "policy_v2.ckpt").string())
          .instantiate();
  netgym::Rng dummy(0);
  netgym::Rng* rngs[1] = {&dummy};
  int expected = -1;
  v2->act_batch(obs.data(), 1, rngs, &expected);
  EXPECT_EQ(client.act(1, obs.data(), obs.size()).action, expected);
}

TEST(ServeServer, CorruptCheckpointIsSkippedOldPolicyKeepsServing) {
  const fs::path dir = test_dir("badswap");
  write_policy(dir / "policy_v1.ckpt", 1);
  serve::ServerOptions opt;
  opt.watch_dir = dir.string();
  opt.watch_poll_ms = 10;
  auto server = std::make_unique<serve::Server>(opt);
  server->store().load_latest(dir.string());
  server->start();

  // A later-named file that is not a valid checkpoint at all.
  {
    std::ofstream bad(dir / "policy_v2.ckpt", std::ios::binary);
    bad << "this is not a checkpoint";
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  serve::Client client = serve::Client::connect_tcp(server->port());
  const std::vector<double> obs = make_obs(2);
  for (int i = 0; i < 20; ++i) {
    const serve::ActResponse r = client.act(2, obs.data(), obs.size());
    EXPECT_EQ(r.policy_version, 1u) << "corrupt checkpoint was installed";
  }
  EXPECT_EQ(server->store().current()->version, 1u);

  // Recovery: a good checkpoint with a later name still swaps in.
  write_policy(dir / "policy_v3.ckpt.tmp", 3);
  fs::rename(dir / "policy_v3.ckpt.tmp", dir / "policy_v3.ckpt");
  std::uint32_t seen = 1;
  for (int i = 0; i < 500 && seen != 2; ++i) {
    seen = client.act(2, obs.data(), obs.size()).policy_version;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(seen, 2u);  // second successful load -> version counter 2
}

TEST(ServeServer, ServesOverUnixSocket) {
  const fs::path dir = test_dir("unix");
  serve::ServerOptions opt;
  opt.unix_path = (dir / "genet.sock").string();
  auto server = std::make_unique<serve::Server>(opt);
  server->store().load_file(write_policy(dir / "p.ckpt", 1));
  server->start();

  serve::Client client = serve::Client::connect_unix(opt.unix_path);
  EXPECT_EQ(client.hello().policy_version, 1u);
  const std::vector<double> obs = make_obs(8);
  EXPECT_GE(client.act(8, obs.data(), obs.size()).action, 0);
  server->stop();
  // Graceful stop removes the socket file.
  EXPECT_FALSE(fs::exists(opt.unix_path));
}

TEST(ServeServer, StopIsIdempotentAndRestartableStore) {
  const fs::path dir = test_dir("stop");
  auto server = start_server(write_policy(dir / "p.ckpt", 1));
  server->stop();
  server->stop();  // second stop is a no-op
  EXPECT_FALSE(server->running());
}

TEST(ServePolicyStore, LoadRejectsMissingAndTruncatedFiles) {
  const fs::path dir = test_dir("store");
  serve::PolicyStore store;
  EXPECT_THROW(store.load_file((dir / "absent.ckpt").string()),
               std::exception);
  EXPECT_EQ(store.current(), nullptr);

  const std::string good = write_policy(dir / "good.ckpt", 1);
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  {
    std::ofstream out(dir / "trunc.ckpt", std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(store.load_file((dir / "trunc.ckpt").string()),
               std::exception);

  store.load_file(good);
  ASSERT_NE(store.current(), nullptr);
  EXPECT_EQ(store.current()->version, 1u);
  EXPECT_EQ(store.current()->task, "test");
  // A failed load after a good one keeps the good policy.
  EXPECT_THROW(store.load_file((dir / "trunc.ckpt").string()),
               std::exception);
  EXPECT_EQ(store.current()->version, 1u);
}

TEST(ServePolicyStore, LoadLatestPicksLexicographicallyGreatestName) {
  const fs::path dir = test_dir("latest");
  write_policy(dir / "policy_v0001.ckpt", 1);
  write_policy(dir / "policy_v0002.ckpt", 2);
  write_policy(dir / "policy_v0010.ckpt", 3);
  {
    std::ofstream tmp(dir / "policy_v9999.ckpt.tmp");  // in-flight write
    tmp << "ignored";
  }
  serve::PolicyStore store;
  const std::string loaded = store.load_latest(dir.string());
  EXPECT_NE(loaded.find("policy_v0010.ckpt"), std::string::npos);
}

}  // namespace
