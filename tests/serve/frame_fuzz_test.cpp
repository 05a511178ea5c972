// Seeded fuzzing of the wire decoders: serve::FrameReader, every serve
// decode_* and every dist::decode_*. Inputs are streams of frames -- the
// serve ones encoded here, the dist ones read from the committed
// golden_dist_frames_v2.bin -- mutated by bit flips, truncation, splices of
// two streams and edits to a length prefix, then fed to a FrameReader in
// random chunks. The property: every input either decodes or throws
// ProtocolError or CheckpointError -- never another exception, never a crash
// (the sanitizer builds run this same fixed budget); no frame body is longer
// than kMaxFrameBytes, nothing
// decoded is larger than the body it came from, the reader buffers no more
// than it was fed, chunking does not change what is decoded, and an
// accepted body re-encodes to the same bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "dist/protocol.hpp"
#include "netgym/checkpoint.hpp"
#include "serve/frame.hpp"

namespace {

using serve::MsgType;
using netgym::checkpoint::CheckpointError;
using serve::ProtocolError;

/// One frame of every type a serve or dist peer sends: the serve frames
/// encoded here, then the eight frames of the golden dist fixture.
std::vector<std::string> seed_frames() {
  std::vector<std::string> frames(7);
  const double obs[3] = {0.5, -0.0, 1e-310};
  serve::encode_hello(frames[0]);
  serve::encode_act(frames[1], 42, obs, 3);
  serve::encode_close(frames[2], 7);
  serve::encode_hello_ok(frames[3], {serve::kProtocolVersion, 10, 6, 3});
  serve::encode_act_ok(frames[4], {42, 5, 2});
  serve::encode_close_ok(frames[5], 7);
  serve::encode_error(frames[6], "act: expected 10 observation values, got 3");
  std::ifstream in(std::string(GENET_TEST_DATA_DIR) + "/golden_dist_frames_v2.bin",
                   std::ios::binary);
  const std::string dist((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  for (std::size_t at = 0; at + 4 <= dist.size();) {
    std::uint32_t len = 0;
    std::memcpy(&len, dist.data() + at, 4);  // little-endian hosts only
    frames.push_back(dist.substr(at, 4 + std::size_t{len}));
    at += 4 + std::size_t{len};
  }
  EXPECT_EQ(frames.size(), 15u) << "golden_dist_frames_v2.bin is 8 frames";
  return frames;
}

/// Decodes `body` with the decoder its type byte names and returns the
/// re-encoded frame, or nullopt for hello (whose body the server ignores).
/// Throws ProtocolError or CheckpointError on a malformed body.
std::optional<std::string> reencode(std::string_view body) {
  std::string out;
  const MsgType type = serve::type_of(body);
  switch (type) {
    case MsgType::kHello:
      return std::nullopt;
    case MsgType::kAct: {
      const serve::ActRequest req = serve::decode_act(body);
      EXPECT_LE(req.obs.capacity() * sizeof(double), body.size());
      serve::encode_act(out, req.session_id, req.obs.data(), req.obs.size());
      break;
    }
    case MsgType::kClose:
      serve::encode_close(out, serve::decode_close(body));
      break;
    case MsgType::kHelloOk:
      serve::encode_hello_ok(out, serve::decode_hello_ok(body));
      break;
    case MsgType::kActOk:
      serve::encode_act_ok(out, serve::decode_act_ok(body));
      break;
    case MsgType::kCloseOk:
      serve::encode_close_ok(out, serve::decode_close_ok(body));
      break;
    case MsgType::kError: {
      const std::string message = serve::decode_error(body);
      EXPECT_LE(message.size(), body.size());
      serve::encode_error(out, message);
      break;
    }
    case MsgType::kDistHello:
      dist::encode_hello(out, dist::decode_hello(body));
      break;
    case MsgType::kDistHelloOk:
      dist::encode_hello_ok(out, dist::decode_hello_ok(body));
      break;
    case MsgType::kDistEval:
      dist::encode_eval_setup(out, dist::decode_eval_setup(body));
      break;
    case MsgType::kDistItems:
      dist::encode_items_request(out, dist::decode_items_request(body));
      break;
    case MsgType::kDistItemsOk:
      dist::encode_items_result(out, dist::decode_items_result(body));
      break;
    case MsgType::kDistTrain:
      dist::encode_train_request(out, dist::decode_train_request(body));
      break;
    case MsgType::kDistTrainOk:
      dist::encode_train_result(out, dist::decode_train_result(body));
      break;
    default:  // kDistShutdown: a worker reads only its type byte
      serve::encode_payload_frame(out, type, serve::payload_of(body, type));
      break;
  }
  return out;
}

/// What a stream decodes to: each body (or "rejected" when its decoder
/// threw), and whether the reader itself gave up on the stream.
struct Outcome {
  std::vector<std::string> bodies;
  bool stream_rejected = false;
  int accepted = 0;

  bool operator==(const Outcome& o) const {
    return bodies == o.bodies && stream_rejected == o.stream_rejected;
  }
};

/// Feeds `bytes` to a fresh FrameReader in chunks drawn from `chunk` (0 =
/// one chunk) and checks the per-body property.
Outcome decode_stream(const std::string& bytes, std::mt19937_64& rng,
                      std::size_t chunk) {
  Outcome outcome;
  serve::FrameReader reader;
  std::size_t fed = 0;
  try {
    while (fed < bytes.size()) {
      const std::size_t n =
          chunk == 0 ? bytes.size() - fed
                     : std::min(bytes.size() - fed,
                                1 + static_cast<std::size_t>(rng() % chunk));
      reader.feed(bytes.data() + fed, n);
      fed += n;
      while (auto body = reader.next()) {
        EXPECT_LE(body->size(), serve::kMaxFrameBytes);
        try {
          const auto frame = reencode(*body);
          if (frame.has_value()) {
            EXPECT_EQ(frame->substr(4), *body)
                << "an accepted body re-encoded to other bytes";
            ++outcome.accepted;
          }
          outcome.bodies.push_back(*body);
        } catch (const ProtocolError&) {
          outcome.bodies.push_back("rejected");
        } catch (const CheckpointError&) {
          outcome.bodies.push_back("rejected");
        }
      }
      EXPECT_LE(reader.pending_bytes(), fed);
    }
  } catch (const ProtocolError&) {
    outcome.stream_rejected = true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped error: " << e.what();
  }
  return outcome;
}

void put_le32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

TEST(ServeFrameFuzz, SeedsRoundTripInAnyChunking) {
  std::mt19937_64 rng(1);
  std::string stream;
  for (const std::string& frame : seed_frames()) {
    stream += frame;
    const Outcome one = decode_stream(frame, rng, 0);
    EXPECT_FALSE(one.stream_rejected);
    ASSERT_EQ(one.bodies.size(), 1u);
    EXPECT_EQ(one.bodies[0], frame.substr(4));
  }
  const Outcome whole = decode_stream(stream, rng, 0);
  EXPECT_EQ(whole.bodies.size(), seed_frames().size());
  EXPECT_EQ(decode_stream(stream, rng, 1), whole);
  EXPECT_EQ(decode_stream(stream, rng, 7), whole);
}

TEST(ServeFrameFuzz, EveryTruncationWaitsForMoreBytes) {
  std::mt19937_64 rng(2);
  for (const std::string& frame : seed_frames()) {
    // Chunks grow with the frame: a few KiB dist frame cut at every byte
    // and fed 1-3 bytes at a time would cost seconds.
    const std::size_t chunk = std::max<std::size_t>(3, frame.size() / 64);
    for (std::size_t at = 0; at < frame.size(); ++at) {
      const Outcome cut = decode_stream(frame.substr(0, at), rng, chunk);
      EXPECT_FALSE(cut.stream_rejected) << "cut at " << at;
      EXPECT_TRUE(cut.bodies.empty()) << "cut at " << at;
    }
  }
}

TEST(ServeFrameFuzz, ErrorLongerThanTheEncoderWritesIsRejected) {
  // encode_error clips, so a longer message could not re-encode to itself.
  const std::string message(serve::kMaxErrorMessageBytes + 1, 'x');
  std::string body(1, static_cast<char>(MsgType::kError));
  body.append(4, '\0');
  put_le32(body, 1, static_cast<std::uint32_t>(message.size()));
  body += message;
  EXPECT_THROW(serve::decode_error(body), ProtocolError);
  body.pop_back();
  put_le32(body, 1, static_cast<std::uint32_t>(message.size() - 1));
  EXPECT_EQ(serve::decode_error(body).size(), serve::kMaxErrorMessageBytes);
}

TEST(ServeFrameFuzz, MutatedStreamsDecodeOrThrowProtocolError) {
  constexpr int kIterations = 10000;
  std::mt19937_64 rng(20261019);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::vector<std::string> seeds = seed_frames();
  const auto stream = [&] {
    std::string bytes;
    for (std::size_t f = 1 + pick(3); f > 0; --f) {
      bytes += seeds[pick(seeds.size())];
    }
    return bytes;
  };
  const std::uint32_t lengths[] = {0,
                                   1,
                                   2,
                                   serve::kMaxFrameBytes,
                                   serve::kMaxFrameBytes + 1,
                                   serve::kMaxDistFrameBytes,
                                   0xffffffffu};
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string bytes = stream();
    switch (i % 4) {
      case 0:  // bit flips anywhere
        for (std::size_t f = 1 + pick(4); f > 0; --f) {
          bytes[pick(bytes.size())] ^= static_cast<char>(1 << pick(8));
        }
        break;
      case 1:  // truncation
        bytes.resize(pick(bytes.size() + 1));
        break;
      case 2: {  // splice: a prefix of one stream onto a suffix of another
        const std::string other = stream();
        bytes = bytes.substr(0, pick(bytes.size() + 1)) +
                other.substr(pick(other.size() + 1));
        break;
      }
      default: {  // edit the first frame's length prefix
        std::uint32_t len = 0;
        std::memcpy(&len, bytes.data(), 4);  // little-endian hosts only
        const std::uint32_t edited =
            pick(2) == 0 ? len + static_cast<std::uint32_t>(pick(9)) - 4
                         : lengths[pick(std::size(lengths))];
        put_le32(bytes, 0, edited);
        break;
      }
    }
    const Outcome whole = decode_stream(bytes, rng, 0);
    const Outcome chunked = decode_stream(bytes, rng, 1 + pick(24));
    EXPECT_EQ(chunked, whole) << "chunking changed the decode at " << i;
    accepted += whole.accepted;
    rejected += whole.stream_rejected ? 1 : 0;
    for (const std::string& body : whole.bodies) {
      rejected += body == "rejected" ? 1 : 0;
    }
  }
  // Both outcomes must be common, or the mutator is not reaching a decoder.
  EXPECT_GT(accepted, kIterations / 4);
  EXPECT_GT(rejected, kIterations / 4);
}

}  // namespace
