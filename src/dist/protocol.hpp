#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netgym/tracing.hpp"
#include "serve/frame.hpp"

namespace dist {

// Wire protocol of the distributed curriculum trainer (DESIGN.md S5i).
//
// Frames reuse the serve codec (length prefix + type byte) with the larger
// serve::kMaxDistFrameBytes ceiling; the body after the type byte is one
// checkpoint-encoded Snapshot blob (netgym::checkpoint::encode_file_bytes),
// so every message is versioned and CRC-checked end to end and no second
// field codec exists. Decoders parse and validate the whole blob -- frame
// type, checkpoint header, CRC, field presence and types -- before returning
// a message, and throw serve::ProtocolError / checkpoint::CheckpointError
// otherwise, so a caller's state is never half-updated by a torn or corrupt
// frame.

/// Bumped on any incompatible change to the dist message payloads; carried
/// in the hello exchange (serve::kProtocolVersion covers the framing layer).
/// v2: hello gained the trace context, dispatch frames gained `parent_span`,
/// and result frames gained span batches (all mandatory keys, so a v1 peer
/// must be rejected by version, not by a missing-key decode error).
inline constexpr std::int64_t kDistProtocolVersion = 2;

/// Coordinator->worker greeting: pin the numeric environment so a worker
/// computes exactly what the coordinator would have computed in-process,
/// and carry the trace context (DESIGN.md S5j) -- workers are exec'd before
/// any env-driven setup, so tracing enablement travels here, never via an
/// inherited GENET_TRACE.
struct Hello {
  std::int64_t version = kDistProtocolVersion;
  std::string math_mode;     ///< nn::math_mode_name of the coordinator
  std::int64_t threads = 1;  ///< worker-side netgym thread count
  std::uint64_t trace_id = 0;        ///< run-wide correlation id
  std::int64_t worker_ordinal = 0;   ///< coordinator-assigned lane index
  std::int64_t trace_enabled = 0;    ///< 1 = run the span rings
  std::int64_t trace_capacity = 0;   ///< per-thread ring capacity (records)
  std::int64_t trace_ship_max_bytes = 0;  ///< span-batch size cap per result
};

struct HelloOk {
  std::int64_t version = kDistProtocolVersion;
  std::int64_t pid = 0;
};

/// Per-evaluation setup, sent to a worker just ahead of its first item of
/// that gap evaluation; the per-item frames carry only stream states.
struct EvalSetup {
  std::uint64_t eval_id = 0;
  std::string adapter_spec;
  std::string kind;      ///< "baseline" or "optimum"
  std::string baseline;  ///< baseline name (kind == "baseline")
  std::vector<double> config;
  std::vector<double> policy_params;
  std::int64_t greedy = 1;
  std::uint64_t parent_span = 0;  ///< coordinator span id worker spans nest
                                  ///< under in the merged trace
};

/// A chunk of work items: the textual RNG stream states of items
/// [first, first + streams.size()).
struct ItemsRequest {
  std::uint64_t eval_id = 0;
  std::int64_t first = 0;
  std::vector<std::string> streams;
};

/// Serialized span batch piggybacked on result frames (never a second
/// serializer: the batch rides inside the result's Snapshot blob). Spans
/// ship with their `span_id`/`parent_id` intact -- the worker parents its
/// top-level spans from the request's `parent_span` before shipping, so a
/// batch is self-describing and never re-parented on arrival. `dropped`
/// counts spans lost worker-side to ring overflow or the ship-size cap.
struct SpanBatch {
  std::vector<netgym::tracing::RemoteSpan> spans;
  std::int64_t dropped = 0;

  bool empty() const { return spans.empty() && dropped == 0; }
};

struct ItemsResult {
  std::uint64_t eval_id = 0;
  std::int64_t first = 0;
  std::vector<double> values;
  SpanBatch spans;
};

struct TrainRequest {
  std::uint64_t train_id = 0;
  std::string adapter_spec;
  std::int64_t iterations = 0;
  std::uint64_t seed = 1;
  std::uint64_t parent_span = 0;  ///< see EvalSetup::parent_span
};

struct TrainResult {
  std::uint64_t train_id = 0;
  std::vector<double> params;
  SpanBatch spans;
};

// Encoders append one complete frame (length prefix included) to `out`.
void encode_hello(std::string& out, const Hello& msg);
void encode_hello_ok(std::string& out, const HelloOk& msg);
void encode_eval_setup(std::string& out, const EvalSetup& msg);
void encode_items_request(std::string& out, const ItemsRequest& msg);
void encode_items_result(std::string& out, const ItemsResult& msg);
void encode_train_request(std::string& out, const TrainRequest& msg);
void encode_train_result(std::string& out, const TrainResult& msg);
void encode_shutdown(std::string& out);

Hello decode_hello(std::string_view body);
HelloOk decode_hello_ok(std::string_view body);
EvalSetup decode_eval_setup(std::string_view body);
ItemsRequest decode_items_request(std::string_view body);
ItemsResult decode_items_result(std::string_view body);
TrainRequest decode_train_request(std::string_view body);
TrainResult decode_train_result(std::string_view body);

}  // namespace dist
