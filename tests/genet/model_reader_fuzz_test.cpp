// Seeded fuzzing of the two model readers: serve::load_policy_checkpoint
// (what `genet eval|search|fleet --model` and genet_serve read) and
// genet::ModelZoo::get. Inputs are mutations of the committed policy golden
// and of a freshly written zoo entry: bit flips, truncation at every 64th
// offset, splices of the two files, edits to the `payload <bytes>` count,
// and payload edits re-sealed with a valid length and CRC so they reach the
// entry decoder and the shape checks. The property: each reader returns or
// throws CheckpointError / std::invalid_argument -- never another exception,
// never a crash (the sanitizer builds run this same fixed budget).

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "genet/zoo.hpp"
#include "netgym/checkpoint.hpp"
#include "serve/policy_store.hpp"

namespace {

namespace ckpt = netgym::checkpoint;

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Offset of the payload: just past the second header line.
std::size_t payload_start(const std::string& file) {
  return file.find('\n', file.find('\n') + 1) + 1;
}

/// `payload` behind a header whose length and CRC match it.
std::string sealed(const std::string& payload) {
  char crc[9];
  std::snprintf(crc, sizeof crc, "%08x", ckpt::crc32(payload));
  return "genet-checkpoint 1\npayload " + std::to_string(payload.size()) +
         " crc32 " + crc + "\n" + payload;
}

class ModelReaderFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("genet_model_fuzz_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    policy_ = read_bytes(std::filesystem::path(GENET_TEST_DATA_DIR) /
                         "golden_policy_v1.ckpt");
    const double nan = std::bit_cast<double>(std::uint64_t{0x7ff8'0000'0042});
    genet::ModelZoo(dir_.string()).put(kKey, {1.5, -0.0, 3e-310, nan});
    zoo_entry_ = read_bytes(path());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path path() const { return dir_ / (kKey + ".model"); }

  /// Feeds `bytes` to both readers; returns how many accepted it.
  int feed(const std::string& bytes) {
    {
      std::ofstream out(path(), std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    int accepted = 0;
    const auto guarded = [&](const char* reader, auto&& read) {
      try {
        read();
        ++accepted;
      } catch (const ckpt::CheckpointError&) {
      } catch (const std::invalid_argument&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << reader << " threw an untyped error: " << e.what();
      }
    };
    guarded("load_policy_checkpoint",
            [&] { serve::load_policy_checkpoint(path().string()); });
    guarded("ModelZoo::get",
            [&] { genet::ModelZoo(dir_.string()).get(kKey); });
    return accepted;
  }

  inline static const std::string kKey = "fuzz";
  std::filesystem::path dir_;
  std::string policy_;
  std::string zoo_entry_;
};

TEST_F(ModelReaderFuzz, SeedsAreAcceptedByTheirOwnReader) {
  EXPECT_EQ(feed(policy_), 1);
  EXPECT_EQ(feed(zoo_entry_), 1);
}

TEST_F(ModelReaderFuzz, TruncationAtEvery64thOffsetIsRejected) {
  for (const std::string* seed : {&policy_, &zoo_entry_}) {
    for (std::size_t at = 0; at < seed->size(); at += 64) {
      EXPECT_EQ(feed(seed->substr(0, at)), 0) << "cut at " << at;
    }
  }
}

TEST_F(ModelReaderFuzz, MutatedFilesReturnOrThrowTheTypedError) {
  constexpr int kIterations = 1500;
  std::mt19937_64 rng(20261019);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::string counts[] = {"0", "1", "-1", "18446744073709551615",
                                "99999999999999999999", "x", ""};
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string& seed = pick(2) == 0 ? policy_ : zoo_entry_;
    const std::string& other = &seed == &policy_ ? zoo_entry_ : policy_;
    std::string bytes = seed;
    switch (i % 4) {
      case 0:  // bit flips anywhere
        for (std::size_t f = 1 + pick(4); f > 0; --f) {
          bytes[pick(bytes.size())] ^= static_cast<char>(1 << pick(8));
        }
        break;
      case 1:  // splice: a prefix of one file onto a suffix of the other
        bytes = seed.substr(0, pick(seed.size() + 1)) +
                other.substr(pick(other.size() + 1));
        break;
      case 2: {  // edit the `payload <bytes>` count
        const std::size_t from = bytes.find("payload ") + 8;
        const std::size_t len = bytes.find(' ', from) - from;
        const long long near = std::stoll(bytes.substr(from, len)) +
                               static_cast<long long>(pick(17)) - 8;
        bytes.replace(from, len, pick(2) == 0
                                     ? std::to_string(near)
                                     : counts[pick(std::size(counts))]);
        break;
      }
      default: {  // payload edits re-sealed, to reach the entry decoder
        std::string payload = bytes.substr(payload_start(bytes));
        for (std::size_t e = 1 + pick(3); e > 0; --e) {
          const std::size_t at = pick(payload.size() + 1);
          switch (pick(4)) {
            case 0:
              if (at < payload.size()) payload[at] = " \n0fdi-"[pick(7)];
              break;
            case 1:
              payload.erase(at, pick(32));
              break;
            case 2:
              payload.insert(at, other.substr(pick(other.size()), pick(32)));
              break;
            default:
              if (at < payload.size()) {
                payload[at] ^= static_cast<char>(1 << pick(8));
              }
              break;
          }
        }
        bytes = sealed(payload);
        break;
      }
    }
    accepted += feed(bytes);
  }
  // Mutations that keep a valid file exist (a re-sealed flip inside a
  // double's hex digits), but most must be rejected.
  EXPECT_LT(accepted, kIterations / 2);
}

}  // namespace
