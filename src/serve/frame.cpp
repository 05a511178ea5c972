#include "serve/frame.hpp"

#include <cstring>

namespace serve {

namespace {

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_double(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// Sequential little-endian reads over one frame body; every getter throws
/// ProtocolError on truncation so decoders cannot read past the body.
class BodyReader {
 public:
  explicit BodyReader(std::string_view body) : body_(body) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint32_t u32() {
    const unsigned char* p = take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  std::uint64_t u64() {
    const unsigned char* p = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string_view bytes(std::size_t n) {
    const unsigned char* p = take(n);
    return {reinterpret_cast<const char*>(p), n};
  }

  std::size_t remaining() const { return body_.size() - pos_; }

  /// A decoder calls this last: leftover bytes mean the body does not match
  /// the advertised type's layout.
  void expect_end(const char* what) const {
    if (pos_ != body_.size()) {
      throw ProtocolError(std::string(what) + ": trailing bytes in frame body");
    }
  }

 private:
  const unsigned char* take(std::size_t n) {
    if (body_.size() - pos_ < n) {
      throw ProtocolError("truncated frame body");
    }
    const auto* p = reinterpret_cast<const unsigned char*>(body_.data()) + pos_;
    pos_ += n;
    return p;
  }

  std::string_view body_;
  std::size_t pos_ = 0;
};

void begin_frame(std::string& out, std::size_t& len_at, MsgType type) {
  len_at = out.size();
  put_u32(out, 0);  // patched by end_frame
  put_u8(out, static_cast<std::uint8_t>(type));
}

void end_frame(std::string& out, std::size_t len_at) {
  const std::size_t body = out.size() - len_at - 4;
  const auto len = static_cast<std::uint32_t>(body);
  for (int i = 0; i < 4; ++i) {
    out[len_at + static_cast<std::size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xff);
  }
}

}  // namespace

void encode_hello(std::string& out) {
  std::size_t at = 0;
  begin_frame(out, at, MsgType::kHello);
  put_u8(out, kProtocolVersion);
  end_frame(out, at);
}

void encode_act(std::string& out, std::uint64_t session_id, const double* obs,
                std::size_t n) {
  std::size_t at = 0;
  begin_frame(out, at, MsgType::kAct);
  put_u64(out, session_id);
  put_u32(out, static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) put_double(out, obs[i]);
  end_frame(out, at);
}

void encode_close(std::string& out, std::uint64_t session_id) {
  std::size_t at = 0;
  begin_frame(out, at, MsgType::kClose);
  put_u64(out, session_id);
  end_frame(out, at);
}

void encode_hello_ok(std::string& out, const HelloResponse& r) {
  std::size_t at = 0;
  begin_frame(out, at, MsgType::kHelloOk);
  put_u8(out, r.protocol);
  put_u32(out, r.obs_size);
  put_u32(out, r.action_count);
  put_u32(out, r.policy_version);
  end_frame(out, at);
}

void encode_act_ok(std::string& out, const ActResponse& r) {
  std::size_t at = 0;
  begin_frame(out, at, MsgType::kActOk);
  put_u64(out, r.session_id);
  put_u32(out, static_cast<std::uint32_t>(r.action));
  put_u32(out, r.policy_version);
  end_frame(out, at);
}

void encode_close_ok(std::string& out, std::uint64_t session_id) {
  std::size_t at = 0;
  begin_frame(out, at, MsgType::kCloseOk);
  put_u64(out, session_id);
  end_frame(out, at);
}

void encode_error(std::string& out, std::string_view message) {
  // Clip so an error frame always fits the frame ceiling.
  message = message.substr(0, kMaxErrorMessageBytes);
  std::size_t at = 0;
  begin_frame(out, at, MsgType::kError);
  put_u32(out, static_cast<std::uint32_t>(message.size()));
  out.append(message);
  end_frame(out, at);
}

void encode_payload_frame(std::string& out, MsgType type,
                          std::string_view payload,
                          std::uint32_t max_frame_bytes) {
  if (payload.size() + 1 > max_frame_bytes) {
    throw ProtocolError("payload of " + std::to_string(payload.size()) +
                        " bytes exceeds the " +
                        std::to_string(max_frame_bytes) + "-byte frame limit");
  }
  std::size_t at = 0;
  begin_frame(out, at, type);
  out.append(payload);
  end_frame(out, at);
}

std::string_view payload_of(std::string_view body, MsgType expected) {
  if (body.empty()) throw ProtocolError("empty frame body");
  if (static_cast<MsgType>(static_cast<std::uint8_t>(body[0])) != expected) {
    throw ProtocolError("payload_of: wrong message type " +
                        std::to_string(static_cast<std::uint8_t>(body[0])));
  }
  return body.substr(1);
}

MsgType type_of(std::string_view body) {
  if (body.empty()) throw ProtocolError("empty frame body");
  const auto type = static_cast<std::uint8_t>(body[0]);
  switch (static_cast<MsgType>(type)) {
    case MsgType::kHello:
    case MsgType::kAct:
    case MsgType::kClose:
    case MsgType::kHelloOk:
    case MsgType::kActOk:
    case MsgType::kCloseOk:
    case MsgType::kError:
    case MsgType::kDistHello:
    case MsgType::kDistEval:
    case MsgType::kDistItems:
    case MsgType::kDistTrain:
    case MsgType::kDistShutdown:
    case MsgType::kDistHelloOk:
    case MsgType::kDistItemsOk:
    case MsgType::kDistTrainOk:
      return static_cast<MsgType>(type);
  }
  throw ProtocolError("unknown message type " + std::to_string(type));
}

ActRequest decode_act(std::string_view body) {
  BodyReader r(body);
  if (static_cast<MsgType>(r.u8()) != MsgType::kAct) {
    throw ProtocolError("decode_act: wrong message type");
  }
  ActRequest req;
  req.session_id = r.u64();
  const std::uint32_t n = r.u32();
  // The count must be consistent with the bytes actually present; a huge
  // count with a short body is caught here, before any allocation.
  if (static_cast<std::size_t>(n) * 8 != r.remaining()) {
    throw ProtocolError("act: observation count does not match body length");
  }
  req.obs.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) req.obs[i] = r.f64();
  r.expect_end("act");
  return req;
}

std::uint64_t decode_close(std::string_view body) {
  BodyReader r(body);
  if (static_cast<MsgType>(r.u8()) != MsgType::kClose) {
    throw ProtocolError("decode_close: wrong message type");
  }
  const std::uint64_t session = r.u64();
  r.expect_end("close");
  return session;
}

HelloResponse decode_hello_ok(std::string_view body) {
  BodyReader r(body);
  if (static_cast<MsgType>(r.u8()) != MsgType::kHelloOk) {
    throw ProtocolError("decode_hello_ok: wrong message type");
  }
  HelloResponse resp;
  resp.protocol = r.u8();
  resp.obs_size = r.u32();
  resp.action_count = r.u32();
  resp.policy_version = r.u32();
  r.expect_end("hello_ok");
  return resp;
}

ActResponse decode_act_ok(std::string_view body) {
  BodyReader r(body);
  if (static_cast<MsgType>(r.u8()) != MsgType::kActOk) {
    throw ProtocolError("decode_act_ok: wrong message type");
  }
  ActResponse resp;
  resp.session_id = r.u64();
  resp.action = static_cast<std::int32_t>(r.u32());
  resp.policy_version = r.u32();
  r.expect_end("act_ok");
  return resp;
}

std::uint64_t decode_close_ok(std::string_view body) {
  BodyReader r(body);
  if (static_cast<MsgType>(r.u8()) != MsgType::kCloseOk) {
    throw ProtocolError("decode_close_ok: wrong message type");
  }
  const std::uint64_t session = r.u64();
  r.expect_end("close_ok");
  return session;
}

std::string decode_error(std::string_view body) {
  BodyReader r(body);
  if (static_cast<MsgType>(r.u8()) != MsgType::kError) {
    throw ProtocolError("decode_error: wrong message type");
  }
  const std::uint32_t n = r.u32();
  if (n != r.remaining()) {
    throw ProtocolError("error frame: message length mismatch");
  }
  if (n > kMaxErrorMessageBytes) {
    throw ProtocolError("error frame: message longer than " +
                        std::to_string(kMaxErrorMessageBytes) + " bytes");
  }
  const std::string_view text = r.bytes(n);
  r.expect_end("error");
  return std::string(text);
}

void FrameReader::feed(const char* data, std::size_t n) {
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

std::optional<std::string> FrameReader::next() {
  if (buf_.size() - pos_ < 4) return std::nullopt;  // torn length prefix
  const auto* p = reinterpret_cast<const unsigned char*>(buf_.data()) + pos_;
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) len = (len << 8) | p[i];
  if (len == 0) throw ProtocolError("zero-length frame");
  if (len > max_frame_bytes_) {
    throw ProtocolError("frame of " + std::to_string(len) +
                        " bytes exceeds the " +
                        std::to_string(max_frame_bytes_) + "-byte limit");
  }
  if (buf_.size() - pos_ - 4 < len) return std::nullopt;  // partial body
  std::string body = buf_.substr(pos_ + 4, len);
  pos_ += 4 + static_cast<std::size_t>(len);
  return body;
}

}  // namespace serve
