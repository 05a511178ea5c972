#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace netgym::telemetry {

// Run telemetry: a process-wide registry of named counters, gauges and
// histograms plus a structured JSONL event sink (RunLogger). Every layer of
// the stack emits through here -- per-iteration training stats, per-round
// curriculum records, per-trial BO proposals, and cheap environment
// step/episode counters -- so a training or bench run leaves a
// machine-readable trajectory behind.
//
// Determinism contract (DESIGN.md, "Run telemetry"): telemetry NEVER draws
// from an netgym::Rng, never reorders or skips work, and metric updates are
// single relaxed atomic operations, so enabling or disabling it cannot change
// any simulated or trained number, at any thread count. Structured events are
// only emitted from serial sections (post-update trainer code, curriculum
// rounds, BO updates on the proposing thread), while the hot-path counters
// are safe to bump from pool workers.

// Minimal JSON fragment builders shared by the RunLogger, the span tracer
// (netgym/tracing.*), and the flight recorder (netgym/flight.*): every sink
// in the process escapes strings and formats doubles the same way.
namespace json {

/// Append `s` to `out` as a JSON string literal (quotes included).
void append_string(std::string& out, std::string_view s);

/// Append a double as a JSON number; non-finite values become null (JSON has
/// no NaN/Infinity literals, and a half-written log must stay parseable).
void append_double(std::string& out, double v);

}  // namespace json

/// Monotonic event count (env steps, episodes, BO trials, ...).
class Counter {
 public:
  void add(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written instantaneous value (current reward, entropy coefficient...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution of a sample stream (episode rewards, per-MI queue delays...)
/// with percentile-grade read-out. `record` is lock-free and order-independent:
/// a handful of relaxed atomic ops, safe from pool workers. Two storage tiers
/// back `snapshot()`:
///
///  - the first `kExactCap` samples land in a fixed slot array (slot index
///    from one fetch_add), so runs below the cap get *exact* percentiles that
///    do not depend on the order workers recorded in;
///  - every sample also lands in sign-split log-spaced buckets (growth
///    2^(1/4), ~9% max relative error), which serve percentile estimates past
///    the cap. Bucket counts are order-independent sums, so estimates are
///    deterministic at any thread count too.
///
/// Non-finite samples are dropped (and counted in `Snapshot::dropped`).
/// Magnitudes below 1e-9 share the zero bucket; magnitudes above ~1.8e10
/// saturate into the top bucket (counted in `Snapshot::saturated`; exact
/// min/max are still tracked separately via CAS).
///
/// Error bound past the cap: a bucket spans a 2^(1/kSubBuckets) magnitude
/// ratio and reports its geometric midpoint, so any estimated percentile is
/// within a factor of 2^(1/(2*kSubBuckets)) of the true sample — with
/// kSubBuckets = 4 that is a max relative error of 2^(1/8) - 1 ~= 9.05%.
/// Within the exact cap percentiles are exact (0% error).
class Histogram {
 public:
  Histogram();

  void record(double v);

  struct Snapshot {
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    bool exact = true;  ///< percentiles from exact samples, not bucket interp
    std::int64_t dropped = 0;    ///< non-finite samples rejected by record()
    std::int64_t saturated = 0;  ///< samples clamped into the top log bucket
  };

  /// Call from serial sections (after parallel work has joined) for a
  /// consistent view; see the determinism note at the top of this header.
  Snapshot snapshot() const;

  /// Fold `other`'s samples into this histogram: counts, sums, extremes,
  /// bucket counts, and drop/saturation counters all add; as many of
  /// `other`'s exact samples as still fit below kExactCap are appended, so a
  /// merge whose combined count stays within the cap yields percentiles
  /// identical to recording the same samples into a single histogram (the
  /// snapshot sorts, so shard order does not matter below the cap). Past the
  /// cap the merged log buckets give the same <=9% bounded estimates as a
  /// single stream. Serial-section only: neither histogram may be receiving
  /// concurrent record() calls. Merging shard-local histograms in a fixed
  /// shard order makes every Snapshot field — including the float `sum` —
  /// bit-identical at any thread count (the fleet simulator relies on this).
  void merge(const Histogram& other);

  void reset();

  std::int64_t count() const { return n_.load(std::memory_order_relaxed); }

  /// Samples beyond this many fall back to log-bucket percentile estimates.
  static constexpr std::size_t kExactCap = 4096;

 private:
  static constexpr int kSubBuckets = 4;        // buckets per power of two
  static constexpr int kBucketsPerSign = 256;  // covers |v| in [1e-9, ~1.8e10]
  static constexpr double kMinAbs = 1e-9;

  static int bucket_index(double abs_v);
  static double bucket_rep(int index);

  std::atomic<std::int64_t> n_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
  std::atomic<std::int64_t> zero_{0};
  std::atomic<std::int64_t> dropped_{0};
  std::atomic<std::int64_t> saturated_{0};
  std::unique_ptr<std::atomic<std::int64_t>[]> pos_;
  std::unique_ptr<std::atomic<std::int64_t>[]> neg_;
  std::unique_ptr<std::atomic<double>[]> exact_;
};

/// Process-wide metric registry. Lookup creates the metric on first use and
/// returns a reference that stays valid for the process lifetime (metrics are
/// heap-allocated and never erased; `reset_all` only zeroes values), so hot
/// paths can cache `Counter&` in a function-local static and pay one relaxed
/// atomic add per event afterwards.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    double value = 0.0;        ///< count / gauge value / histogram sum
    std::int64_t count = 0;    ///< histogram sample count (0 otherwise)
    Histogram::Snapshot hist;  ///< populated for kHistogram entries only
  };

  /// Consistent name-sorted snapshot of every registered metric.
  std::vector<Entry> snapshot() const;

  /// Zero every metric; references handed out earlier stay valid.
  void reset_all();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// A Registry snapshot has three formatters: the table below (`--metrics-out`),
// Prometheus text (netgym/exposition.hpp) and JSONL fields
// (snapshot_fields, after Field).

/// Fixed-width human-readable table of every registered metric (one row per
/// Registry entry; histogram rows carry p50/p90/p99/max). Backs the
/// `--metrics-out` dump; ends with a trailing newline.
std::string format_metrics_table();

/// One key/value pair of a structured event. Doubles that are not finite are
/// serialized as JSON null.
using FieldValue =
    std::variant<std::int64_t, double, std::string, std::vector<double>>;
using Field = std::pair<std::string, FieldValue>;

/// A snapshot as JSONL event fields: `name: value` per counter and gauge,
/// and `name.count`,
/// `name.mean`, `name.p50`, `name.p90`, `name.p99`, `name.max` per
/// histogram. Backs the CLI `run_end` and the daemon `serve_metrics` records.
std::vector<Field> snapshot_fields(const std::vector<Registry::Entry>& entries);

/// Structured JSONL event sink. Every event becomes one line
///   {"type":"...","step":N,"seq":K,"ts_ms":...,<fields...>}
/// written and flushed under a mutex, so concurrent emitters interleave at
/// line granularity and a crash loses at most the line being written.
/// event() never throws: a failed write or flush is kept (the first one) and
/// reported by check(), so a full disk cannot change what a run computes.
class RunLogger {
 public:
  /// Opens (truncates) `path`; throws std::runtime_error on failure.
  explicit RunLogger(std::string path);
  ~RunLogger();

  RunLogger(const RunLogger&) = delete;
  RunLogger& operator=(const RunLogger&) = delete;

  void event(std::string_view type, std::int64_t step,
             std::initializer_list<Field> fields) {
    event(type, step, fields.begin(), fields.end());
  }
  void event(std::string_view type, std::int64_t step,
             const std::vector<Field>& fields) {
    event(type, step, fields.data(), fields.data() + fields.size());
  }

  std::uint64_t events_written() const {
    return events_.load(std::memory_order_relaxed);
  }

  /// Throws std::runtime_error("cannot write '<path>': <reason>") if any
  /// event failed to reach the file.
  void check() const;

 private:
  void event(std::string_view type, std::int64_t step, const Field* begin,
             const Field* end);

  std::string path_;
  mutable std::mutex mu_;
  std::FILE* out_ = nullptr;
  int error_ = 0;  ///< errno of the first failed write; guarded by mu_
  std::atomic<std::uint64_t> events_{0};
};

// Global sink management. When no logger is installed (the default) every
// log_event call is a cheap no-op, so instrumented code needs no flags.

/// Install `logger` as the process-wide sink (nullptr uninstalls).
void set_global_logger(std::shared_ptr<RunLogger> logger);

/// Open `path` and install it as the global sink; throws on I/O failure.
void open_global_logger(const std::string& path);

/// Currently installed sink (may be null).
std::shared_ptr<RunLogger> global_logger();

/// Emit an event through the global sink; no-op when none is installed.
void log_event(std::string_view type, std::int64_t step,
               std::initializer_list<Field> fields);
void log_event(std::string_view type, std::int64_t step,
               const std::vector<Field>& fields);

/// True when a global sink is installed (lets callers skip building field
/// vectors for dropped events).
bool logging_enabled();

}  // namespace netgym::telemetry
