#include "dist/worker.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "genet/adapter.hpp"
#include "genet/curriculum.hpp"
#include "netgym/config.hpp"
#include "netgym/parallel.hpp"
#include "netgym/rng.hpp"
#include "netgym/tracing.hpp"
#include "nn/gemm.hpp"
#include "rl/policy.hpp"
#include "serve/frame.hpp"

namespace dist {

namespace {

void write_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("dist worker: write failed: ") +
                               std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Worker-side state of the current evaluation: the reconstructed adapter
/// and policy an ItemsRequest runs against.
struct EvalState {
  std::uint64_t eval_id = 0;
  bool active = false;
  EvalSetup setup;
  std::unique_ptr<genet::TaskAdapter> adapter;
  std::unique_ptr<rl::MlpPolicy> policy;
};

void apply_eval_setup(EvalState& state, EvalSetup setup) {
  state.adapter = genet::make_adapter_from_spec(setup.adapter_spec);
  state.policy = state.adapter->make_policy(setup.policy_params);
  state.policy->set_greedy(setup.greedy != 0);
  state.eval_id = setup.eval_id;
  state.setup = std::move(setup);
  state.active = true;
}

ItemsResult run_items(EvalState& state, const ItemsRequest& request) {
  if (!state.active || request.eval_id != state.eval_id) {
    throw std::runtime_error(
        "dist worker: items request for eval " +
        std::to_string(request.eval_id) + " but current setup is " +
        (state.active ? std::to_string(state.eval_id) : "absent"));
  }
  netgym::Config config;
  config.values = state.setup.config;
  ItemsResult result;
  result.eval_id = request.eval_id;
  result.first = request.first;
  netgym::tracing::TraceSpan span("worker.eval_item", "dist", request.first);
  std::vector<netgym::Rng> streams(request.streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    streams[i].set_state(request.streams[i]);
  }
  result.values =
      genet::gap_values(*state.adapter, *state.policy, state.setup.kind,
                        state.setup.baseline, config, streams);
  return result;
}

TrainResult run_train(const TrainRequest& request) {
  netgym::tracing::TraceSpan span("worker.train", "dist",
                                  static_cast<std::int64_t>(request.train_id));
  genet::TrainModelRequest model_request;
  model_request.adapter_spec = request.adapter_spec;
  model_request.iterations = static_cast<int>(request.iterations);
  model_request.seed = request.seed;
  TrainResult result;
  result.train_id = request.train_id;
  result.params = genet::train_model_for_request(model_request);
  return result;
}

/// Drain this worker's span rings into a result-frame batch, dropping the
/// oldest spans (and counting them) if the encoded batch would exceed the
/// coordinator's ship-size cap -- backpressure never grows a result frame
/// without bound. Unparented spans are parented here, from the `parent_span`
/// the request being answered carried: the worker knows exactly which
/// dispatch its spans belong to, so the batch ships self-describing and the
/// coordinator never has to guess from arrival timing.
SpanBatch collect_spans(std::int64_t max_bytes, std::uint64_t parent_span) {
  SpanBatch batch;
  if (!netgym::tracing::enabled()) return batch;
  auto collected = netgym::tracing::collect_and_reset();
  batch.dropped = static_cast<std::int64_t>(collected.dropped);
  batch.spans = std::move(collected.spans);
  for (auto& span : batch.spans) {
    if (span.parent_id == 0) span.parent_id = parent_span;
  }
  if (max_bytes <= 0) return batch;
  // Conservative per-span wire estimate: strings hex-encode at 2 bytes per
  // byte and each span adds four i64 array slots plus key overhead.
  const auto span_cost = [](const netgym::tracing::RemoteSpan& s) {
    return 160 + 2 * (s.name.size() + s.cat.size());
  };
  std::size_t estimate = 256;
  for (const auto& s : batch.spans) estimate += span_cost(s);
  std::size_t drop = 0;
  while (estimate > static_cast<std::size_t>(max_bytes) &&
         drop < batch.spans.size()) {
    estimate -= span_cost(batch.spans[drop]);
    ++drop;
  }
  if (drop > 0) {
    batch.spans.erase(batch.spans.begin(),
                      batch.spans.begin() + static_cast<std::ptrdiff_t>(drop));
    batch.dropped += static_cast<std::int64_t>(drop);
  }
  return batch;
}

}  // namespace

int worker_main(int fd) {
  try {
    serve::FrameReader reader(serve::kMaxDistFrameBytes);
    EvalState state;
    std::int64_t trace_ship_max_bytes = 0;
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("dist worker: read failed: ") +
                                 std::strerror(errno));
      }
      if (n == 0) return 0;  // coordinator closed the socket; exit quietly
      reader.feed(buf, static_cast<std::size_t>(n));
      while (const auto body = reader.next()) {
        std::string out;
        switch (serve::type_of(*body)) {
          case serve::MsgType::kDistHello: {
            const Hello hello = decode_hello(*body);
            if (hello.version != kDistProtocolVersion) {
              throw std::runtime_error(
                  "dist worker: protocol version mismatch: coordinator " +
                  std::to_string(hello.version) + ", worker " +
                  std::to_string(kDistProtocolVersion));
            }
            nn::set_math_mode(nn::parse_math_mode(hello.math_mode));
            netgym::set_num_threads(static_cast<int>(hello.threads));
            if (hello.trace_enabled != 0) {
              // Trace context arrives here, never via env: the worker was
              // exec'd before env-driven setup. Spans collect locally and
              // ship back piggybacked on result frames.
              trace_ship_max_bytes = hello.trace_ship_max_bytes;
              netgym::tracing::start(static_cast<std::size_t>(
                  hello.trace_capacity > 0
                      ? hello.trace_capacity
                      : static_cast<std::int64_t>(
                            netgym::tracing::kDefaultBufferCapacity)));
            }
            HelloOk ok;
            ok.pid = static_cast<std::int64_t>(::getpid());
            encode_hello_ok(out, ok);
            break;
          }
          case serve::MsgType::kDistEval:
            apply_eval_setup(state, decode_eval_setup(*body));
            break;
          case serve::MsgType::kDistItems: {
            ItemsResult result = run_items(state, decode_items_request(*body));
            result.spans =
                collect_spans(trace_ship_max_bytes, state.setup.parent_span);
            encode_items_result(out, result);
            break;
          }
          case serve::MsgType::kDistTrain: {
            const TrainRequest request = decode_train_request(*body);
            TrainResult result = run_train(request);
            result.spans =
                collect_spans(trace_ship_max_bytes, request.parent_span);
            encode_train_result(out, result);
            break;
          }
          case serve::MsgType::kDistShutdown:
            return 0;
          default:
            throw std::runtime_error("dist worker: unexpected message type");
        }
        if (!out.empty()) write_all(fd, out);
      }
    }
  } catch (const std::exception& e) {
    // Best effort: tell the coordinator why before dying, so a request
    // error surfaces as a loud failure instead of a silent reassign loop.
    try {
      std::string out;
      serve::encode_error(out, e.what());
      write_all(fd, out);
    } catch (...) {
    }
    return 1;
  }
}

}  // namespace dist
