#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace netgym::checkpoint {

// Durable-state layer (DESIGN.md S5d): a versioned, crash-safe snapshot
// format plus the Serializable hook every stateful component implements.
//
// A checkpoint file is
//
//   genet-checkpoint <version>\n
//   payload <bytes> crc32 <8 lowercase hex>\n
//   <payload: exactly <bytes> bytes>
//
// where the payload is a newline-separated sequence of typed entries,
//
//   <key> i  <int64 decimal>
//   <key> u  <uint64 decimal>
//   <key> d  <16 hex digits>            (IEEE-754 bit pattern)
//   <key> s  <len> <2*len hex digits>   (raw bytes, hex-encoded)
//   <key> dv <n> <16 hex digits> ...    (n bit patterns)
//   <key> iv <n> <int64 decimal> ...
//
// sorted by key, so encoding the same state always yields the same bytes.
// Doubles travel as their exact bit patterns -- a snapshot round-trips NaN
// payloads, signed zeros, and denormals bit-for-bit, which is what makes
// resumed training runs bit-identical to uninterrupted ones.
//
// Crash safety: write_file serializes to `<path>.tmp`, fsyncs the file,
// atomically renames it over `path`, and fsyncs the containing directory. A
// process killed mid-write leaves at worst a stale `.tmp` next to the intact
// previous snapshot; read_file rejects truncated, corrupted (CRC mismatch),
// and wrong-version files with a CheckpointError *before* any caller state
// is touched, so there are no partial loads.

/// Raised for every malformed-snapshot condition: unreadable file, bad magic,
/// unsupported version, truncation, CRC mismatch, unparseable payload,
/// missing keys, wrong entry types, or state-shape mismatches during load.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Schema version written by this build; read_file rejects anything newer.
/// Bump when the payload layout of an existing component changes shape (new
/// keys are backward-compatible and do not need a bump).
inline constexpr int kFormatVersion = 1;

/// Typed key/value store, the in-memory form of one checkpoint. Keys are
/// path-like strings ("trainer/actor_opt/m"); whitespace and control
/// characters are rejected. Getters throw CheckpointError when the key is
/// absent or holds another type, so load hooks fail loudly instead of
/// silently defaulting.
class Snapshot {
 public:
  void put_i64(const std::string& key, std::int64_t v);
  void put_u64(const std::string& key, std::uint64_t v);
  void put_double(const std::string& key, double v);
  void put_string(const std::string& key, std::string v);
  void put_doubles(const std::string& key, std::vector<double> v);
  void put_i64s(const std::string& key, std::vector<std::int64_t> v);

  std::int64_t get_i64(const std::string& key) const;
  std::uint64_t get_u64(const std::string& key) const;
  double get_double(const std::string& key) const;
  const std::string& get_string(const std::string& key) const;
  const std::vector<double>& get_doubles(const std::string& key) const;
  const std::vector<std::int64_t>& get_i64s(const std::string& key) const;

  bool has(const std::string& key) const;
  std::size_t size() const { return entries_.size(); }
  std::vector<std::string> keys() const;

  /// Payload text (no header); deterministic for given contents.
  std::string encode() const;

  /// Inverse of encode; throws CheckpointError on any malformed entry.
  static Snapshot decode(std::string_view payload);

 private:
  enum class Kind { kI64, kU64, kDouble, kString, kDoubles, kI64s };

  struct Entry {
    Kind kind = Kind::kI64;
    std::int64_t i = 0;
    std::uint64_t u = 0;
    double d = 0.0;
    std::string s;
    std::vector<double> dv;
    std::vector<std::int64_t> iv;
  };

  const Entry& entry_of(const std::string& key, Kind kind,
                        const char* kind_name) const;
  Entry& slot_for(const std::string& key);

  std::map<std::string, Entry> entries_;
};

/// Save/load hook implemented by every stateful layer (nn::Mlp, nn::Adam,
/// rl::RunningNorm, rl::ActorCriticBase, bo::GaussianProcess,
/// bo::BayesianOptimizer, netgym::ConfigDistribution,
/// genet::CurriculumTrainer, ...). `prefix` namespaces the component's keys
/// inside a shared snapshot ("trainer/", "dist/", ...), so owners compose
/// children by delegating with an extended prefix.
///
/// load_state contract: validate *everything* (presence, types, shapes)
/// against the component's current configuration before mutating any member,
/// and throw CheckpointError on mismatch -- a failed load must leave the
/// component exactly as it was.
class Serializable {
 public:
  virtual ~Serializable() = default;

  virtual void save_state(Snapshot& snap, const std::string& prefix) const = 0;
  virtual void load_state(const Snapshot& snap, const std::string& prefix) = 0;
};

/// Serialize `snap` with the versioned CRC header and atomically replace
/// `path` (write `<path>.tmp` + fsync + rename + directory fsync). Emits a
/// "checkpoint.save" trace span and bumps the checkpoint.saves /
/// checkpoint.bytes_written telemetry counters. Throws CheckpointError on
/// I/O failure; `path` is never left half-written.
void write_file(const Snapshot& snap, const std::string& path);

/// Read and fully validate a checkpoint: magic, version (<= kFormatVersion),
/// exact payload length, CRC, and payload syntax. Emits a "checkpoint.load"
/// trace span and bumps checkpoint.loads. Throws CheckpointError on any
/// defect -- callers only see complete, checksum-verified snapshots.
Snapshot read_file(const std::string& path);

/// Serialize `snap` into the exact byte sequence write_file puts on disk
/// (versioned header + CRC line + payload) without touching the filesystem.
/// The distributed-training wire protocol (src/dist/) ships these blobs
/// inside frames, so every message body carries the same version and CRC
/// protection as a checkpoint file.
std::string encode_file_bytes(const Snapshot& snap);

/// Inverse of encode_file_bytes: validate magic, version, exact payload
/// length, CRC, and payload syntax before returning -- a malformed blob
/// throws CheckpointError with no partial result. `what` names the byte
/// source in error messages (read_file passes "'<path>'", the dist layer
/// passes things like "dist hello frame").
Snapshot decode_file_bytes(std::string_view bytes, const std::string& what);

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `data`; exposed so tests and
/// external validators (scripts/check_checkpoint.py via Python's zlib) can
/// agree with the writer byte-for-byte.
std::uint32_t crc32(std::string_view data);

}  // namespace netgym::checkpoint

namespace netgym {

/// The writer of every artifact but checkpoints: create or truncate `path`
/// and write `bytes`, checking the open, write, flush and close. Throws
/// std::runtime_error("cannot write '<path>': <reason>") on any failure.
void write_file_bytes(const std::string& path, std::string_view bytes);

/// Flush stdout and check that nothing written to it was lost; a front end
/// calls it last, since stdout carries its results. Throws
/// std::runtime_error("cannot write 'stdout': <reason>") otherwise.
void flush_stdout();

}  // namespace netgym
