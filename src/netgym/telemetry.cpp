#include "netgym/telemetry.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>

#include "netgym/stats.hpp"

namespace netgym::telemetry {

namespace json {

void append_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace json

namespace {

void append_json_value(std::string& out, const FieldValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, *i);
    out += buf;
  } else if (const auto* d = std::get_if<double>(&value)) {
    json::append_double(out, *d);
  } else if (const auto* s = std::get_if<std::string>(&value)) {
    json::append_string(out, *s);
  } else {
    const auto& vec = std::get<std::vector<double>>(value);
    out.push_back('[');
    for (std::size_t i = 0; i < vec.size(); ++i) {
      if (i > 0) out.push_back(',');
      json::append_double(out, vec[i]);
    }
    out.push_back(']');
  }
}

/// Relaxed CAS update of an atomic double towards the smaller/larger value.
template <typename Cmp>
void atomic_update_extreme(std::atomic<double>& slot, double v, Cmp better) {
  double cur = slot.load(std::memory_order_relaxed);
  while (better(v, cur) &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::mutex g_logger_mu;
std::shared_ptr<RunLogger> g_logger;

}  // namespace

Histogram::Histogram()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()),
      pos_(new std::atomic<std::int64_t>[kBucketsPerSign]),
      neg_(new std::atomic<std::int64_t>[kBucketsPerSign]),
      exact_(new std::atomic<double>[kExactCap]) {
  for (int i = 0; i < kBucketsPerSign; ++i) {
    pos_[i].store(0, std::memory_order_relaxed);
    neg_[i].store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kExactCap; ++i) {
    exact_[i].store(0.0, std::memory_order_relaxed);
  }
}

int Histogram::bucket_index(double abs_v) {
  // log2(|v| / kMinAbs) scaled to kSubBuckets buckets per octave.
  const int idx =
      static_cast<int>(std::floor(std::log2(abs_v / kMinAbs) * kSubBuckets));
  return std::clamp(idx, 0, kBucketsPerSign - 1);
}

double Histogram::bucket_rep(int index) {
  // Geometric midpoint of the bucket's [lower, upper) magnitude range.
  return kMinAbs *
         std::exp2((static_cast<double>(index) + 0.5) / kSubBuckets);
}

void Histogram::record(double v) {
  if (!std::isfinite(v)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto slot =
      static_cast<std::uint64_t>(n_.fetch_add(1, std::memory_order_relaxed));
  if (slot < kExactCap) exact_[slot].store(v, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_update_extreme(min_, v, std::less<double>());
  atomic_update_extreme(max_, v, std::greater<double>());
  const double abs_v = std::fabs(v);
  if (abs_v < kMinAbs) {
    zero_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // log2(abs_v) - log2(kMinAbs), not log2(abs_v / kMinAbs): the quotient
    // overflows to inf for abs_v near DBL_MAX, which would turn the int cast
    // into UB and file the sample under bucket 0 instead of the saturated
    // tail.
    const int raw = static_cast<int>(
        std::floor((std::log2(abs_v) - std::log2(kMinAbs)) * kSubBuckets));
    if (raw >= kBucketsPerSign) {
      saturated_.fetch_add(1, std::memory_order_relaxed);
    }
    const int idx = std::clamp(raw, 0, kBucketsPerSign - 1);
    (v > 0.0 ? pos_ : neg_)[idx].fetch_add(1, std::memory_order_relaxed);
  }
}

void Histogram::merge(const Histogram& other) {
  // Serial-section operation (see header): plain relaxed loads/stores are
  // enough, and doing the adds in the caller's merge order keeps float sums
  // bit-identical across thread counts.
  dropped_.fetch_add(other.dropped_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  saturated_.fetch_add(other.saturated_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  const std::int64_t add = other.n_.load(std::memory_order_relaxed);
  if (add <= 0) return;
  const std::int64_t self_n = n_.load(std::memory_order_relaxed);
  // Append other's exact samples while slots remain. If the merged count ends
  // up within kExactCap, both inputs were fully exact, so the union is the
  // complete sample set; past the cap snapshot() switches to buckets anyway.
  const std::int64_t take =
      std::min(add, static_cast<std::int64_t>(kExactCap));
  for (std::int64_t i = 0; i < take; ++i) {
    const std::int64_t dst = self_n + i;
    if (dst >= static_cast<std::int64_t>(kExactCap)) break;
    exact_[dst].store(other.exact_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  n_.store(self_n + add, std::memory_order_relaxed);
  sum_.store(sum_.load(std::memory_order_relaxed) +
                 other.sum_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  atomic_update_extreme(min_, other.min_.load(std::memory_order_relaxed),
                        std::less<double>());
  atomic_update_extreme(max_, other.max_.load(std::memory_order_relaxed),
                        std::greater<double>());
  zero_.fetch_add(other.zero_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  for (int i = 0; i < kBucketsPerSign; ++i) {
    pos_[i].fetch_add(other.pos_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    neg_[i].fetch_add(other.neg_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = n_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.saturated = saturated_.load(std::memory_order_relaxed);
  if (s.count <= 0) return s;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  if (static_cast<std::uint64_t>(s.count) <= kExactCap) {
    std::vector<double> xs(static_cast<std::size_t>(s.count));
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] = exact_[i].load(std::memory_order_relaxed);
    }
    std::sort(xs.begin(), xs.end());
    s.p50 = percentile_sorted(xs, 50.0);
    s.p90 = percentile_sorted(xs, 90.0);
    s.p99 = percentile_sorted(xs, 99.0);
    s.p999 = percentile_sorted(xs, 99.9);
    s.exact = true;
    return s;
  }
  // Past the exact cap: estimate from the log buckets. Lay the buckets out in
  // ascending value order (negatives from large magnitude to small, the zero
  // bucket, positives from small magnitude to large) and pick the
  // representative value of the bucket containing each target rank. Bucket
  // counts are order-independent sums, so this is deterministic regardless of
  // which threads recorded which samples.
  s.exact = false;
  std::vector<std::pair<double, std::int64_t>> cells;
  cells.reserve(2 * kBucketsPerSign + 1);
  for (int i = kBucketsPerSign - 1; i >= 0; --i) {
    const std::int64_t c = neg_[i].load(std::memory_order_relaxed);
    if (c > 0) cells.emplace_back(-bucket_rep(i), c);
  }
  if (const std::int64_t c = zero_.load(std::memory_order_relaxed); c > 0) {
    cells.emplace_back(0.0, c);
  }
  for (int i = 0; i < kBucketsPerSign; ++i) {
    const std::int64_t c = pos_[i].load(std::memory_order_relaxed);
    if (c > 0) cells.emplace_back(bucket_rep(i), c);
  }
  std::int64_t total = 0;
  for (const auto& [rep, c] : cells) total += c;
  const auto estimate = [&](double p) {
    const auto target = static_cast<std::int64_t>(
        p / 100.0 * static_cast<double>(total - 1));
    std::int64_t cum = 0;
    for (const auto& [rep, c] : cells) {
      cum += c;
      if (cum > target) return std::clamp(rep, s.min, s.max);
    }
    return s.max;
  };
  s.p50 = estimate(50.0);
  s.p90 = estimate(90.0);
  s.p99 = estimate(99.0);
  s.p999 = estimate(99.9);
  return s;
}

void Histogram::reset() {
  n_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  zero_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  saturated_.store(0, std::memory_order_relaxed);
  for (int i = 0; i < kBucketsPerSign; ++i) {
    pos_[i].store(0, std::memory_order_relaxed);
    neg_[i].store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::vector<Registry::Entry> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> entries;
  entries.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    entries.push_back({name, Kind::kCounter,
                       static_cast<double>(c->value()), 0, {}});
  }
  for (const auto& [name, g] : gauges_) {
    entries.push_back({name, Kind::kGauge, g->value(), 0, {}});
  }
  for (const auto& [name, h] : histograms_) {
    Entry e;
    e.name = name;
    e.kind = Kind::kHistogram;
    e.hist = h->snapshot();
    e.value = e.hist.sum;
    e.count = e.hist.count;
    entries.push_back(std::move(e));
  }
  // The per-kind maps are each sorted; a full sort keeps the merged snapshot
  // name-ordered regardless of kind.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return entries;
}

void Registry::reset_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string format_metrics_table() {
  const auto entries = Registry::instance().snapshot();
  std::string out;
  out.reserve(128 + 96 * entries.size());
  char line[256];
  std::snprintf(line, sizeof(line), "%-32s %-9s %10s %14s %12s %12s %12s %12s\n",
                "metric", "kind", "count", "value", "p50", "p90", "p99", "max");
  out += line;
  for (const auto& e : entries) {
    switch (e.kind) {
      case Registry::Kind::kCounter:
        std::snprintf(line, sizeof(line), "%-32s %-9s %10s %14.0f\n",
                      e.name.c_str(), "counter", "", e.value);
        break;
      case Registry::Kind::kGauge:
        std::snprintf(line, sizeof(line), "%-32s %-9s %10s %14.6g\n",
                      e.name.c_str(), "gauge", "", e.value);
        break;
      case Registry::Kind::kHistogram:
        std::snprintf(line, sizeof(line),
                      "%-32s %-9s %10" PRId64 " %14.6g %12.6g %12.6g %12.6g "
                      "%12.6g\n",
                      e.name.c_str(), "histogram", e.hist.count,
                      e.hist.count > 0 ? e.hist.sum /
                                             static_cast<double>(e.hist.count)
                                       : 0.0,
                      e.hist.p50, e.hist.p90, e.hist.p99, e.hist.max);
        break;
    }
    out += line;
  }
  return out;
}

std::vector<Field> snapshot_fields(
    const std::vector<Registry::Entry>& entries) {
  std::vector<Field> fields;
  fields.reserve(entries.size());
  for (const auto& e : entries) {
    if (e.kind != Registry::Kind::kHistogram) {
      fields.emplace_back(e.name, e.value);
      continue;
    }
    const Histogram::Snapshot& h = e.hist;
    fields.emplace_back(e.name + ".count", h.count);
    fields.emplace_back(
        e.name + ".mean",
        h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0);
    fields.emplace_back(e.name + ".p50", h.p50);
    fields.emplace_back(e.name + ".p90", h.p90);
    fields.emplace_back(e.name + ".p99", h.p99);
    fields.emplace_back(e.name + ".max", h.max);
  }
  return fields;
}

RunLogger::RunLogger(std::string path) : path_(std::move(path)) {
  out_ = std::fopen(path_.c_str(), "we");  // e: dist workers must not inherit it
  if (out_ == nullptr) {
    const int err = errno;
    throw std::runtime_error("cannot write '" + path_ +
                             "': " + std::strerror(err));
  }
}

RunLogger::~RunLogger() {
  if (out_ != nullptr) std::fclose(out_);
}

void RunLogger::event(std::string_view type, std::int64_t step,
                      const Field* begin, const Field* end) {
  std::string line;
  line.reserve(128);
  line += "{\"type\":";
  json::append_string(line, type);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"step\":%" PRId64, step);
  line += buf;
  const auto ts_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  for (const Field* f = begin; f != end; ++f) {
    line.push_back(',');
    json::append_string(line, f->first);
    line.push_back(':');
    append_json_value(line, f->second);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t seq = events_.fetch_add(1, std::memory_order_relaxed);
    std::snprintf(buf, sizeof(buf),
                  ",\"seq\":%" PRIu64 ",\"ts_ms\":%" PRId64 "}\n", seq,
                  static_cast<std::int64_t>(ts_ms));
    line += buf;
    if ((std::fwrite(line.data(), 1, line.size(), out_) != line.size() ||
         std::fflush(out_) != 0) &&
        error_ == 0) {
      error_ = errno != 0 ? errno : EIO;
    }
  }
}

void RunLogger::check() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (error_ != 0) {
    throw std::runtime_error("cannot write '" + path_ +
                             "': " + std::strerror(error_));
  }
}

void set_global_logger(std::shared_ptr<RunLogger> logger) {
  std::lock_guard<std::mutex> lock(g_logger_mu);
  g_logger = std::move(logger);
}

void open_global_logger(const std::string& path) {
  set_global_logger(std::make_shared<RunLogger>(path));
}

std::shared_ptr<RunLogger> global_logger() {
  std::lock_guard<std::mutex> lock(g_logger_mu);
  return g_logger;
}

bool logging_enabled() {
  std::lock_guard<std::mutex> lock(g_logger_mu);
  return g_logger != nullptr;
}

void log_event(std::string_view type, std::int64_t step,
               std::initializer_list<Field> fields) {
  if (auto logger = global_logger()) logger->event(type, step, fields);
}

void log_event(std::string_view type, std::int64_t step,
               const std::vector<Field>& fields) {
  if (auto logger = global_logger()) logger->event(type, step, fields);
}

}  // namespace netgym::telemetry
