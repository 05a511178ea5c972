#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace serve {

// Wire protocol of genet_serve (DESIGN.md S5g): length-prefixed binary
// frames over a byte stream (localhost TCP or a Unix socket).
//
// Every frame is
//
//   <u32 body length, little-endian> <body, exactly that many bytes>
//
// and every body starts with a one-byte message type. Integers are
// little-endian; observations travel as IEEE-754 double bit patterns, so a
// served action is computed on exactly the doubles the client held (the same
// bit-exactness rule the checkpoint format follows).
//
// The length prefix is the only framing state a reader needs, which is what
// makes the malformed-input story small enough to test exhaustively: a torn
// prefix or a partial body just means "wait for more bytes"; a zero-length
// or oversized prefix is a protocol error and the server drops the
// connection after an error frame. Requests carry a client-chosen session id
// so responses can be matched under pipelining (responses to one connection
// may interleave across batching shards in any order).

/// Hard ceiling on one frame body; an advertised length above this is a
/// ProtocolError, not an allocation. Generous for any MLP observation row
/// (128 KiB is ~16k doubles) while keeping a malicious or corrupt prefix
/// from ballooning server memory.
inline constexpr std::uint32_t kMaxFrameBytes = 128u * 1024;

/// Ceiling for distributed-training frames (src/dist/), which carry whole
/// checkpoint-encoded Snapshot blobs -- policy parameter vectors plus textual
/// mt19937_64 stream states -- rather than single observation rows. The
/// serving daemon keeps the tight default; a dist endpoint constructs its
/// FrameReader with this larger cap.
inline constexpr std::uint32_t kMaxDistFrameBytes = 8u * 1024 * 1024;

/// Longest error-frame message: encode_error clips to it and decode_error
/// rejects a longer one, so every accepted body re-encodes to itself.
inline constexpr std::size_t kMaxErrorMessageBytes = 1024;

/// Bumped on any incompatible wire change; exchanged in hello.
inline constexpr std::uint8_t kProtocolVersion = 1;

/// First body byte of every frame. Client->server types are < 0x80;
/// responses have the top bit set.
enum class MsgType : std::uint8_t {
  kHello = 0x01,    ///< negotiate; learn the served policy's shape & version
  kAct = 0x02,      ///< one observation for one session -> one action
  kClose = 0x03,    ///< forget a session's server-side state
  kHelloOk = 0x81,
  kActOk = 0x82,
  kCloseOk = 0x83,
  kError = 0x7f,    ///< server->client diagnostic; connection closes after
  // Distributed-training messages (src/dist/): the body after the type byte
  // is one checkpoint-encoded Snapshot blob (versioned + CRC-checked), so
  // the dist layer never invents a second field codec.
  kDistHello = 0x10,     ///< coordinator->worker: math mode, threads, version
  kDistEval = 0x11,      ///< coordinator->worker: gap-eval setup (policy etc.)
  kDistItems = 0x12,     ///< coordinator->worker: RNG streams of work items
  kDistTrain = 0x13,     ///< coordinator->worker: train-from-spec request
  kDistShutdown = 0x14,  ///< coordinator->worker: exit cleanly
  kDistHelloOk = 0x90,
  kDistItemsOk = 0x92,
  kDistTrainOk = 0x93,
};

/// Raised by the decoder on malformed bytes: bad length prefix, unknown
/// message type, or a body that does not match its type's layout.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ActRequest {
  std::uint64_t session_id = 0;
  std::vector<double> obs;
};

struct ActResponse {
  std::uint64_t session_id = 0;
  std::int32_t action = 0;
  std::uint32_t policy_version = 0;
};

struct HelloResponse {
  std::uint8_t protocol = kProtocolVersion;
  std::uint32_t obs_size = 0;
  std::uint32_t action_count = 0;
  std::uint32_t policy_version = 0;
};

// Encoders append one complete frame (length prefix included) to `out`;
// callers batch several frames into one buffer to pipeline.
void encode_hello(std::string& out);
void encode_act(std::string& out, std::uint64_t session_id, const double* obs,
                std::size_t n);
void encode_close(std::string& out, std::uint64_t session_id);
void encode_hello_ok(std::string& out, const HelloResponse& r);
void encode_act_ok(std::string& out, const ActResponse& r);
void encode_close_ok(std::string& out, std::uint64_t session_id);
void encode_error(std::string& out, std::string_view message);

/// Append one frame whose body is `type` followed by `payload` verbatim (the
/// dist message shape). Throws ProtocolError when the resulting body would
/// exceed `max_frame_bytes`, so a writer can never emit a frame its peer's
/// reader is bound to reject.
void encode_payload_frame(std::string& out, MsgType type,
                          std::string_view payload,
                          std::uint32_t max_frame_bytes = kMaxFrameBytes);

/// The body minus its leading type byte; throws ProtocolError on an empty
/// body or when the type byte is not `expected`.
std::string_view payload_of(std::string_view body, MsgType expected);

/// Message type of a decoded body; throws ProtocolError on an empty body or
/// a type byte no decoder knows.
MsgType type_of(std::string_view body);

// Body decoders; each throws ProtocolError when the body is truncated,
// oversized for its layout, or internally inconsistent.
ActRequest decode_act(std::string_view body);
std::uint64_t decode_close(std::string_view body);
HelloResponse decode_hello_ok(std::string_view body);
ActResponse decode_act_ok(std::string_view body);
std::uint64_t decode_close_ok(std::string_view body);
std::string decode_error(std::string_view body);

/// Incremental frame reassembly for one connection. Feed whatever recv()
/// returned; `next()` yields complete frame bodies in order, or nullopt when
/// the buffered bytes end mid-prefix or mid-body (the partial-read and
/// torn-length-prefix cases). Throws ProtocolError on a zero-length or
/// oversized prefix -- the connection is unrecoverable past that point
/// because resynchronization inside a byte stream is impossible.
class FrameReader {
 public:
  /// The frame-size ceiling is per-endpoint: the serving daemon keeps the
  /// default kMaxFrameBytes, dist endpoints pass kMaxDistFrameBytes.
  explicit FrameReader(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const char* data, std::size_t n);

  std::optional<std::string> next();

  /// Bytes buffered but not yet returned as frames.
  std::size_t pending_bytes() const { return buf_.size() - pos_; }

 private:
  std::uint32_t max_frame_bytes_;
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_, compacted lazily
};

}  // namespace serve
