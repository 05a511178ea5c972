#include "netgym/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "netgym/telemetry.hpp"
#include "netgym/tracing.hpp"

namespace netgym::checkpoint {

namespace {

constexpr std::string_view kMagic = "genet-checkpoint";

void require_valid_key(const std::string& key) {
  if (key.empty()) {
    throw std::invalid_argument("checkpoint: empty key");
  }
  for (unsigned char c : key) {
    if (std::isspace(c) != 0 || std::iscntrl(c) != 0) {
      throw std::invalid_argument("checkpoint: key '" + key +
                                  "' contains whitespace or control bytes");
    }
  }
}

void append_hex_u64(std::string& out, std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  out.append(buf, 16);
}

std::uint64_t parse_hex_u64(std::string_view hex, const std::string& key) {
  if (hex.size() != 16) {
    throw CheckpointError("checkpoint: key '" + key +
                          "': expected 16 hex digits, got '" +
                          std::string(hex) + "'");
  }
  std::uint64_t v = 0;
  for (char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      throw CheckpointError("checkpoint: key '" + key +
                            "': invalid hex digit in '" + std::string(hex) +
                            "'");
    }
  }
  return v;
}

void append_hex_bytes(std::string& out, std::string_view bytes) {
  static const char digits[] = "0123456789abcdef";
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
}

std::string parse_hex_bytes(std::string_view hex, std::size_t len,
                            const std::string& key) {
  if (hex.size() % 2 != 0 || hex.size() / 2 != len) {  // 2 * len may wrap
    throw CheckpointError("checkpoint: key '" + key + "': string length " +
                          std::to_string(len) + " does not match " +
                          std::to_string(hex.size()) + " hex digits");
  }
  auto nibble = [&](char c) -> unsigned {
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
    throw CheckpointError("checkpoint: key '" + key +
                          "': invalid hex digit in string payload");
  };
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>((nibble(hex[2 * i]) << 4) |
                                    nibble(hex[2 * i + 1])));
  }
  return out;
}

/// Strict decimal parser: the whole token must be consumed.
template <typename Int>
Int parse_decimal(std::string_view token, const std::string& key) {
  if (token.empty()) {
    throw CheckpointError("checkpoint: key '" + key + "': empty number");
  }
  Int v{};
  std::string owned(token);
  std::size_t consumed = 0;
  try {
    if constexpr (std::is_signed_v<Int>) {
      const long long parsed = std::stoll(owned, &consumed);
      v = static_cast<Int>(parsed);
    } else {
      if (owned.front() == '-') throw std::invalid_argument("negative");
      const unsigned long long parsed = std::stoull(owned, &consumed);
      v = static_cast<Int>(parsed);
    }
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != owned.size()) {
    throw CheckpointError("checkpoint: key '" + key + "': bad number '" +
                          owned + "'");
  }
  return v;
}

/// Split a payload line into whitespace-separated tokens.
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[n] = c;
    }
    return t;
  }();
  return table;
}

/// RAII stdio handle so every error path closes the file.
struct FileCloser {
  std::FILE* f = nullptr;
  ~FileCloser() {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

std::uint32_t crc32(std::string_view data) {
  const auto& table = crc_table();
  std::uint32_t c = 0xffffffffu;
  for (unsigned char byte : data) {
    c = table[(c ^ byte) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

Snapshot::Entry& Snapshot::slot_for(const std::string& key) {
  require_valid_key(key);
  return entries_[key];
}

void Snapshot::put_i64(const std::string& key, std::int64_t v) {
  Entry& e = slot_for(key);
  e = Entry{};
  e.kind = Kind::kI64;
  e.i = v;
}

void Snapshot::put_u64(const std::string& key, std::uint64_t v) {
  Entry& e = slot_for(key);
  e = Entry{};
  e.kind = Kind::kU64;
  e.u = v;
}

void Snapshot::put_double(const std::string& key, double v) {
  Entry& e = slot_for(key);
  e = Entry{};
  e.kind = Kind::kDouble;
  e.d = v;
}

void Snapshot::put_string(const std::string& key, std::string v) {
  Entry& e = slot_for(key);
  e = Entry{};
  e.kind = Kind::kString;
  e.s = std::move(v);
}

void Snapshot::put_doubles(const std::string& key, std::vector<double> v) {
  Entry& e = slot_for(key);
  e = Entry{};
  e.kind = Kind::kDoubles;
  e.dv = std::move(v);
}

void Snapshot::put_i64s(const std::string& key,
                        std::vector<std::int64_t> v) {
  Entry& e = slot_for(key);
  e = Entry{};
  e.kind = Kind::kI64s;
  e.iv = std::move(v);
}

const Snapshot::Entry& Snapshot::entry_of(const std::string& key, Kind kind,
                                          const char* kind_name) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw CheckpointError("checkpoint: missing key '" + key + "'");
  }
  if (it->second.kind != kind) {
    throw CheckpointError("checkpoint: key '" + key + "' is not of type " +
                          kind_name);
  }
  return it->second;
}

std::int64_t Snapshot::get_i64(const std::string& key) const {
  return entry_of(key, Kind::kI64, "i64").i;
}

std::uint64_t Snapshot::get_u64(const std::string& key) const {
  return entry_of(key, Kind::kU64, "u64").u;
}

double Snapshot::get_double(const std::string& key) const {
  return entry_of(key, Kind::kDouble, "double").d;
}

const std::string& Snapshot::get_string(const std::string& key) const {
  return entry_of(key, Kind::kString, "string").s;
}

const std::vector<double>& Snapshot::get_doubles(
    const std::string& key) const {
  return entry_of(key, Kind::kDoubles, "doubles").dv;
}

const std::vector<std::int64_t>& Snapshot::get_i64s(
    const std::string& key) const {
  return entry_of(key, Kind::kI64s, "i64s").iv;
}

bool Snapshot::has(const std::string& key) const {
  return entries_.find(key) != entries_.end();
}

std::vector<std::string> Snapshot::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(key);
  return out;
}

std::string Snapshot::encode() const {
  std::string out;
  for (const auto& [key, e] : entries_) {
    out += key;
    switch (e.kind) {
      case Kind::kI64:
        out += " i ";
        out += std::to_string(e.i);
        break;
      case Kind::kU64:
        out += " u ";
        out += std::to_string(e.u);
        break;
      case Kind::kDouble:
        out += " d ";
        append_hex_u64(out, std::bit_cast<std::uint64_t>(e.d));
        break;
      case Kind::kString:
        out += " s ";
        out += std::to_string(e.s.size());
        if (!e.s.empty()) {
          out += ' ';
          append_hex_bytes(out, e.s);
        }
        break;
      case Kind::kDoubles:
        out += " dv ";
        out += std::to_string(e.dv.size());
        for (double v : e.dv) {
          out += ' ';
          append_hex_u64(out, std::bit_cast<std::uint64_t>(v));
        }
        break;
      case Kind::kI64s:
        out += " iv ";
        out += std::to_string(e.iv.size());
        for (std::int64_t v : e.iv) {
          out += ' ';
          out += std::to_string(v);
        }
        break;
    }
    out += '\n';
  }
  return out;
}

Snapshot Snapshot::decode(std::string_view payload) {
  Snapshot snap;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) {
      throw CheckpointError("checkpoint: payload ends without newline");
    }
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) {
      throw CheckpointError("checkpoint: blank payload line");
    }
    const std::vector<std::string_view> tokens = tokenize(line);
    if (tokens.size() < 2) {
      throw CheckpointError("checkpoint: malformed entry '" +
                            std::string(line) + "'");
    }
    const std::string key(tokens[0]);
    if (snap.has(key)) {
      throw CheckpointError("checkpoint: duplicate key '" + key + "'");
    }
    const std::string_view type = tokens[1];
    const std::size_t n_args = tokens.size() - 2;
    if (type == "i") {
      if (n_args != 1) {
        throw CheckpointError("checkpoint: key '" + key + "': i wants 1 arg");
      }
      snap.put_i64(key, parse_decimal<std::int64_t>(tokens[2], key));
    } else if (type == "u") {
      if (n_args != 1) {
        throw CheckpointError("checkpoint: key '" + key + "': u wants 1 arg");
      }
      snap.put_u64(key, parse_decimal<std::uint64_t>(tokens[2], key));
    } else if (type == "d") {
      if (n_args != 1) {
        throw CheckpointError("checkpoint: key '" + key + "': d wants 1 arg");
      }
      snap.put_double(key,
                      std::bit_cast<double>(parse_hex_u64(tokens[2], key)));
    } else if (type == "s") {
      if (n_args != 1 && n_args != 2) {
        throw CheckpointError("checkpoint: key '" + key +
                              "': s wants a length and a hex body");
      }
      const auto len = parse_decimal<std::uint64_t>(tokens[2], key);
      const std::string_view hex = n_args == 2 ? tokens[3] : "";
      snap.put_string(key,
                      parse_hex_bytes(hex, static_cast<std::size_t>(len), key));
    } else if (type == "dv") {
      if (n_args < 1) {
        throw CheckpointError("checkpoint: key '" + key + "': dv wants a count");
      }
      const auto count = parse_decimal<std::uint64_t>(tokens[2], key);
      if (n_args != 1 + count) {
        throw CheckpointError("checkpoint: key '" + key + "': dv count " +
                              std::to_string(count) + " but " +
                              std::to_string(n_args - 1) + " values");
      }
      std::vector<double> values;
      values.reserve(static_cast<std::size_t>(count));
      for (std::size_t i = 0; i < count; ++i) {
        values.push_back(
            std::bit_cast<double>(parse_hex_u64(tokens[3 + i], key)));
      }
      snap.put_doubles(key, std::move(values));
    } else if (type == "iv") {
      if (n_args < 1) {
        throw CheckpointError("checkpoint: key '" + key + "': iv wants a count");
      }
      const auto count = parse_decimal<std::uint64_t>(tokens[2], key);
      if (n_args != 1 + count) {
        throw CheckpointError("checkpoint: key '" + key + "': iv count " +
                              std::to_string(count) + " but " +
                              std::to_string(n_args - 1) + " values");
      }
      std::vector<std::int64_t> values;
      values.reserve(static_cast<std::size_t>(count));
      for (std::size_t i = 0; i < count; ++i) {
        values.push_back(parse_decimal<std::int64_t>(tokens[3 + i], key));
      }
      snap.put_i64s(key, std::move(values));
    } else {
      throw CheckpointError("checkpoint: key '" + key +
                            "': unknown entry type '" + std::string(type) +
                            "'");
    }
  }
  return snap;
}

namespace {

/// The two header lines encode_file_bytes writes. The decoder accepts only
/// these exact bytes, so every accepted file re-encodes to itself.
std::string file_header(std::uint64_t payload_bytes, std::uint32_t crc) {
  char header[96];
  std::snprintf(header, sizeof header, "%s %d\npayload %" PRIu64
                " crc32 %08" PRIx32 "\n",
                std::string(kMagic).c_str(), kFormatVersion, payload_bytes,
                crc);
  return header;
}

}  // namespace

std::string encode_file_bytes(const Snapshot& snap) {
  const std::string payload = snap.encode();
  return file_header(payload.size(), crc32(payload)) + payload;
}

Snapshot decode_file_bytes(std::string_view bytes, const std::string& what) {
  // Header line 1: magic + version.
  std::size_t eol = bytes.find('\n');
  if (eol == std::string_view::npos) {
    throw CheckpointError("checkpoint: " + what + " is truncated (no header)");
  }
  {
    std::istringstream header{std::string(bytes.substr(0, eol))};
    std::string magic;
    int version = -1;
    if (!(header >> magic >> version) || magic != kMagic) {
      throw CheckpointError("checkpoint: " + what +
                            " is not a checkpoint file");
    }
    if (version < 1 || version > kFormatVersion) {
      throw CheckpointError("checkpoint: " + what + " has schema version " +
                            std::to_string(version) +
                            "; this build supports up to " +
                            std::to_string(kFormatVersion));
    }
  }

  // Header line 2: payload length + CRC.
  const std::size_t line2_start = eol + 1;
  eol = bytes.find('\n', line2_start);
  if (eol == std::string_view::npos) {
    throw CheckpointError("checkpoint: " + what +
                          " is truncated (no payload header)");
  }
  std::uint64_t expected_bytes = 0;
  std::uint32_t expected_crc = 0;
  {
    std::istringstream header{
        std::string(bytes.substr(line2_start, eol - line2_start))};
    std::string payload_word, crc_word, crc_hex;
    if (!(header >> payload_word >> expected_bytes >> crc_word >> crc_hex) ||
        payload_word != "payload" || crc_word != "crc32" ||
        crc_hex.size() != 8) {
      throw CheckpointError("checkpoint: " + what +
                            " has a malformed payload header");
    }
    expected_crc =
        static_cast<std::uint32_t>(parse_hex_u64("00000000" + crc_hex, what));
  }
  if (bytes.substr(0, eol + 1) != file_header(expected_bytes, expected_crc)) {
    throw CheckpointError("checkpoint: " + what +
                          " has a malformed payload header");
  }

  const std::string_view payload = bytes.substr(eol + 1);
  if (payload.size() != expected_bytes) {
    throw CheckpointError(
        "checkpoint: " + what + " is truncated or padded: header claims " +
        std::to_string(expected_bytes) + " payload bytes, file has " +
        std::to_string(payload.size()));
  }
  const std::uint32_t actual_crc = crc32(payload);
  if (actual_crc != expected_crc) {
    char actual_hex[9];
    std::snprintf(actual_hex, sizeof actual_hex, "%08x", actual_crc);
    throw CheckpointError("checkpoint: " + what +
                          " is corrupt: CRC mismatch (payload " + actual_hex +
                          ")");
  }
  return Snapshot::decode(payload);
}

void write_file(const Snapshot& snap, const std::string& path) {
  netgym::tracing::TraceSpan span("checkpoint.save", "checkpoint");
  namespace tel = netgym::telemetry;
  const auto started = std::chrono::steady_clock::now();

  const std::string contents = encode_file_bytes(snap);

  const std::string tmp = path + ".tmp";
  {
    FileCloser file{std::fopen(tmp.c_str(), "wb")};
    if (file.f == nullptr) {
      throw CheckpointError("checkpoint: cannot open '" + tmp +
                            "' for writing: " + std::strerror(errno));
    }
    if (std::fwrite(contents.data(), 1, contents.size(), file.f) !=
            contents.size() ||
        std::fflush(file.f) != 0 || ::fsync(::fileno(file.f)) != 0) {
      std::remove(tmp.c_str());
      throw CheckpointError("checkpoint: short write to '" + tmp +
                            "': " + std::strerror(errno));
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint: cannot rename '" + tmp + "' to '" +
                          path + "': " + std::strerror(errno));
  }
  // Make the rename itself durable: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }

  tel::Registry::instance().counter("checkpoint.saves").add();
  tel::Registry::instance().histogram("checkpoint.save_seconds").record(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count());
  tel::Registry::instance()
      .counter("checkpoint.bytes_written")
      .add(static_cast<std::int64_t>(contents.size()));
  if (tel::logging_enabled()) {
    tel::log_event("checkpoint_save", 0,
                   {{"path", path},
                    {"bytes", static_cast<std::int64_t>(contents.size())},
                    {"keys", static_cast<std::int64_t>(snap.size())}});
  }
}

Snapshot read_file(const std::string& path) {
  netgym::tracing::TraceSpan span("checkpoint.load", "checkpoint");
  namespace tel = netgym::telemetry;
  const auto started = std::chrono::steady_clock::now();

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError("checkpoint: cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();

  Snapshot snap = decode_file_bytes(contents, "'" + path + "'");
  tel::Registry::instance().counter("checkpoint.loads").add();
  tel::Registry::instance().histogram("checkpoint.load_seconds").record(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count());
  if (tel::logging_enabled()) {
    tel::log_event("checkpoint_load", 0,
                   {{"path", path},
                    {"bytes", static_cast<std::int64_t>(contents.size())},
                    {"keys", static_cast<std::int64_t>(snap.size())}});
  }
  return snap;
}

}  // namespace netgym::checkpoint

namespace netgym {

void write_file_bytes(const std::string& path, std::string_view bytes) {
  const auto fail = [&path](int err) {
    throw std::runtime_error("cannot write '" + path +
                             "': " + std::strerror(err));
  };
  checkpoint::FileCloser file{std::fopen(path.c_str(), "wb")};
  if (file.f == nullptr) fail(errno);
  if (std::fwrite(bytes.data(), 1, bytes.size(), file.f) != bytes.size() ||
      std::fflush(file.f) != 0) {
    fail(errno);
  }
  if (std::fclose(std::exchange(file.f, nullptr)) != 0) fail(errno);
}

void flush_stdout() {
  errno = 0;
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    throw std::runtime_error(std::string("cannot write 'stdout': ") +
                             std::strerror(errno != 0 ? errno : EIO));
  }
}

}  // namespace netgym
