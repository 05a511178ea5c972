#include "netgym/tracing.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "netgym/checkpoint.hpp"
#include "netgym/telemetry.hpp"

namespace netgym::tracing {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// Per-thread bounded ring of completed spans. Single writer (the owning
/// thread); the flusher reads it from serial sections only, synchronized by
/// the release store of `written_` and by the fact that no spans are in
/// flight while flushing (see the serial-section contract in the header).
class SpanBuffer {
 public:
  SpanBuffer(std::uint32_t tid, std::size_t capacity)
      : tid_(tid), ring_(std::max<std::size_t>(capacity, 1)) {}

  void push(const SpanRecord& r) {
    const std::uint64_t w = written_.load(std::memory_order_relaxed);
    ring_[w % ring_.size()] = r;
    written_.store(w + 1, std::memory_order_release);
  }

  std::uint32_t tid() const { return tid_; }

  std::uint64_t written() const {
    return written_.load(std::memory_order_acquire);
  }
  std::uint64_t held() const { return std::min<std::uint64_t>(written(), ring_.size()); }
  std::uint64_t dropped() const {
    const std::uint64_t w = written();
    return w > ring_.size() ? w - ring_.size() : 0;
  }

  /// Oldest-to-newest records currently held. Serial sections only.
  std::vector<SpanRecord> collect() const {
    const std::uint64_t w = written();
    const std::uint64_t n = std::min<std::uint64_t>(w, ring_.size());
    std::vector<SpanRecord> out;
    out.reserve(n);
    for (std::uint64_t seq = w - n; seq < w; ++seq) {
      out.push_back(ring_[seq % ring_.size()]);
    }
    return out;
  }

  /// Drop held records and adopt a new capacity. Serial sections only.
  void reset(std::size_t capacity) {
    ring_.assign(std::max<std::size_t>(capacity, 1), SpanRecord{});
    written_.store(0, std::memory_order_relaxed);
  }

 private:
  std::uint32_t tid_;
  std::vector<SpanRecord> ring_;
  std::atomic<std::uint64_t> written_{0};
};

/// One remote process's lane in the merged trace: the pid it reported plus
/// the spans shipped from it, in arrival order (per remote thread that is
/// completion order: rings push at span end and batches arrive in dispatch
/// order over one FIFO socket).
struct RemoteLane {
  std::int64_t pid = 0;
  std::string label;
  std::vector<RemoteSpan> spans;
};

struct TraceRegistry {
  std::mutex mu;
  // Buffers live for the process lifetime (worker threads may die before the
  // trace is flushed; their spans must survive them). Ring storage is only
  // allocated for threads that emit while tracing is enabled.
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  std::size_t capacity = kDefaultBufferCapacity;
  std::int64_t start_ns = 0;
  std::vector<RemoteLane> remote;  ///< keyed by (pid, label), append order
};

TraceRegistry& registry() {
  // Immortal: never destroyed, so spans emitted by late-exiting threads can
  // never touch a dead object.
  static TraceRegistry* r = new TraceRegistry;
  return *r;
}

SpanBuffer& local_buffer() {
  thread_local SpanBuffer* t_buffer = nullptr;
  if (t_buffer == nullptr) {
    TraceRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<SpanBuffer>(
        static_cast<std::uint32_t>(r.buffers.size()), r.capacity));
    t_buffer = r.buffers.back().get();
  }
  return *t_buffer;
}

}  // namespace

namespace detail {

void emit(const SpanRecord& record) { local_buffer().push(record); }

}  // namespace detail

void start(std::size_t buffer_capacity) {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.capacity = buffer_capacity;
  for (auto& buffer : r.buffers) buffer->reset(buffer_capacity);
  r.remote.clear();
  r.start_ns = now_ns();
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void stop() { detail::g_enabled.store(false, std::memory_order_relaxed); }

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> g_next{1};
  return g_next.fetch_add(1, std::memory_order_relaxed);
}

CollectedSpans collect_and_reset() {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  CollectedSpans out;
  for (auto& buffer : r.buffers) {
    out.dropped += buffer->dropped();
    for (const SpanRecord& rec : buffer->collect()) {
      RemoteSpan span;
      span.name = rec.name != nullptr ? rec.name : "span";
      span.cat = rec.cat != nullptr ? rec.cat : "task";
      span.tid = static_cast<std::int64_t>(buffer->tid());
      span.start_ns = rec.start_ns;
      span.dur_ns = rec.dur_ns;
      span.index = rec.index;
      span.span_id = rec.span_id;
      span.parent_id = rec.parent_id;
      out.spans.push_back(std::move(span));
    }
    buffer->reset(r.capacity);
  }
  return out;
}

void add_remote_spans(std::int64_t pid, const std::string& label,
                      std::vector<RemoteSpan> spans) {
  if (spans.empty()) return;
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& lane : r.remote) {
    if (lane.pid == pid && lane.label == label) {
      lane.spans.insert(lane.spans.end(),
                        std::make_move_iterator(spans.begin()),
                        std::make_move_iterator(spans.end()));
      return;
    }
  }
  r.remote.push_back(RemoteLane{pid, label, std::move(spans)});
}

std::uint64_t remote_span_count() {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t total = 0;
  for (const auto& lane : r.remote) total += lane.spans.size();
  return total;
}

std::uint64_t dropped_spans() {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t total = 0;
  for (const auto& buffer : r.buffers) total += buffer->dropped();
  return total;
}

std::uint64_t recorded_spans() {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t total = 0;
  for (const auto& buffer : r.buffers) total += buffer->held();
  return total;
}

namespace {

/// Append a span event's optional args object
/// ({"index":..,"span_id":..,"parent":..}). Emits nothing when no arg is set.
void append_span_args(std::string& line, std::int64_t index,
                      std::uint64_t span_id, std::uint64_t parent_id) {
  if (index < 0 && span_id == 0 && parent_id == 0) return;
  char buf[96];
  line += ",\"args\":{";
  bool first = true;
  if (index >= 0) {
    std::snprintf(buf, sizeof(buf), "\"index\":%lld",
                  static_cast<long long>(index));
    line += buf;
    first = false;
  }
  if (span_id != 0) {
    std::snprintf(buf, sizeof(buf), "%s\"span_id\":%llu", first ? "" : ",",
                  static_cast<unsigned long long>(span_id));
    line += buf;
    first = false;
  }
  if (parent_id != 0) {
    std::snprintf(buf, sizeof(buf), "%s\"parent\":%llu", first ? "" : ",",
                  static_cast<unsigned long long>(parent_id));
    line += buf;
  }
  line += '}';
}

// Every append_* below adds one event followed by ",\n"; write_chrome_trace
// turns the last separator into the closing "\n]}\n".

void append_meta(std::string& out, std::int64_t pid, const char* meta_name,
                 std::int64_t tid, const std::string& value) {
  char buf[96];
  out += "{\"ph\":\"M\"";
  std::snprintf(buf, sizeof(buf), ",\"pid\":%lld,\"name\":\"%s\"",
                static_cast<long long>(pid), meta_name);
  out += buf;
  if (tid >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"tid\":%lld",
                  static_cast<long long>(tid));
    out += buf;
  }
  out += ",\"args\":{\"name\":";
  telemetry::json::append_string(out, value);
  out += "}},\n";
}

/// One "X" complete event; `start_ns` is relative to start(), so traces
/// begin at 0.
void append_span_event(std::string& out, std::int64_t pid, std::int64_t tid,
                       std::string_view name, std::string_view cat,
                       std::int64_t start_ns, std::int64_t dur_ns,
                       std::int64_t index, std::uint64_t span_id,
                       std::uint64_t parent_id) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"X\",\"pid\":%lld,\"tid\":%lld,\"name\":",
                static_cast<long long>(pid), static_cast<long long>(tid));
  out += buf;
  telemetry::json::append_string(out, name);
  out += ",\"cat\":";
  telemetry::json::append_string(out, cat);
  // Chrome trace timestamps are microseconds; keep ns precision in the
  // fraction.
  std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                static_cast<double>(start_ns) * 1e-3,
                static_cast<double>(dur_ns) * 1e-3);
  out += buf;
  append_span_args(out, index, span_id, parent_id);
  out += "},\n";
}

}  // namespace

std::uint64_t write_chrome_trace(const std::string& path) {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);

  // One event per line keeps the file trivially greppable and line-parseable
  // while staying a single valid JSON document. Each process gets its own
  // pid lane: the local process under its real pid, every remote lane under
  // the pid it reported in its hello.
  const auto local_pid = static_cast<std::int64_t>(::getpid());
  // Reserve well past what the events need, so the string does not
  // reallocate: pages it never fills are never touched and cost no memory.
  std::size_t events = 1 + r.buffers.size() + r.remote.size();
  for (const auto& buffer : r.buffers) events += buffer->held();
  for (const auto& lane : r.remote) events += 2 * lane.spans.size();
  std::string out;
  out.reserve(256 * events);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  std::uint64_t span_events = 0;
  append_meta(out, local_pid, "process_name", -1, "genet");
  for (const auto& buffer : r.buffers) {
    const auto tid = static_cast<std::int64_t>(buffer->tid());
    append_meta(out, local_pid, "thread_name", tid,
                "thread-" + std::to_string(buffer->tid()));
    for (const SpanRecord& rec : buffer->collect()) {
      append_span_event(out, local_pid, tid,
                        rec.name != nullptr ? rec.name : "span",
                        rec.cat != nullptr ? rec.cat : "task",
                        rec.start_ns - r.start_ns, rec.dur_ns, rec.index,
                        rec.span_id, rec.parent_id);
      ++span_events;
    }
  }
  for (const auto& lane : r.remote) {
    append_meta(out, lane.pid, "process_name", -1, lane.label);
    std::vector<std::int64_t> named_tids;
    for (const RemoteSpan& rec : lane.spans) {
      if (std::find(named_tids.begin(), named_tids.end(), rec.tid) ==
          named_tids.end()) {
        named_tids.push_back(rec.tid);
        append_meta(out, lane.pid, "thread_name", rec.tid,
                    lane.label + "-thread-" + std::to_string(rec.tid));
      }
      append_span_event(out, lane.pid, rec.tid, rec.name, rec.cat,
                        rec.start_ns - r.start_ns, rec.dur_ns, rec.index,
                        rec.span_id, rec.parent_id);
      ++span_events;
    }
  }
  out.resize(out.size() - 2);  // the last event's ",\n"
  out += "\n]}\n";
  write_file_bytes(path, out);
  return span_events;
}

}  // namespace netgym::tracing
