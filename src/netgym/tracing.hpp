#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace netgym::tracing {

// Hierarchical span tracer. RAII TraceSpan objects time a code region and
// append one fixed-size record to a per-thread bounded ring buffer on
// destruction; the buffers are flushed to a Chrome trace-event JSON file
// (loadable in chrome://tracing or https://ui.perfetto.dev) when the run
// ends. This module is distinct from netgym/trace.* -- that one holds
// *bandwidth* traces (the paper's network traces); this one holds *execution*
// spans.
//
// Hot-path cost and threading: when tracing is disabled a TraceSpan is two
// relaxed atomic loads and no clock reads. When enabled, each span is two
// steady_clock reads plus one store into a thread-local ring (single writer,
// no locks, no allocation after the ring exists). On overflow the ring
// overwrites its oldest record and counts the drop -- tracing can never block
// or grow without bound.
//
// Determinism contract (DESIGN.md, "Run telemetry"): tracing never draws from
// an netgym::Rng, never reorders or skips work, and only observes
// wall-clock time, so traced and untraced runs produce bit-identical results
// at any thread count (pinned in parallel_determinism_test).
//
// Serial-section contract: start(), stop(), and write_chrome_trace() must be
// called while no pool work is in flight (CLI setup/teardown, test
// setup/teardown). Span emission itself is safe from any thread at any time.

/// One completed span. `name`/`cat` must be string literals (or otherwise
/// outlive the flush) -- the ring stores only the pointers.
struct SpanRecord {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t start_ns = 0;  ///< steady_clock, relative to process start
  std::int64_t dur_ns = 0;
  std::int64_t index = -1;  ///< item/round/trial index; -1 = none
  std::uint64_t span_id = 0;    ///< cross-process correlation id; 0 = none
  std::uint64_t parent_id = 0;  ///< span_id of the logical parent; 0 = none
};

/// A span collected from (or destined for) another process: same shape as
/// SpanRecord but with owned strings (a remote process's string literals do
/// not survive the trip) and an explicit thread id.
struct RemoteSpan {
  std::string name;
  std::string cat;
  std::int64_t tid = 0;
  std::int64_t start_ns = 0;  ///< absolute steady_clock ns (CLOCK_MONOTONIC
                              ///< is system-wide on Linux, so directly
                              ///< comparable across processes)
  std::int64_t dur_ns = 0;
  std::int64_t index = -1;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace detail {
extern std::atomic<bool> g_enabled;
void emit(const SpanRecord& record);
}  // namespace detail

/// True while the tracer is collecting spans.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

inline constexpr std::size_t kDefaultBufferCapacity = 1 << 16;

/// Enable span collection. Clears previously collected spans and (re)sizes
/// every thread's ring to `buffer_capacity` records. Serial sections only.
void start(std::size_t buffer_capacity = kDefaultBufferCapacity);

/// Stop collecting; already-collected spans stay flushable. Serial only.
void stop();

/// Write every thread's collected spans -- plus any remote spans registered
/// via add_remote_spans -- as Chrome trace-event JSON (one event per line
/// inside `traceEvents`; "X" complete events plus "M" process-name and
/// thread-name metadata). Each process gets its own `pid` lane (the local
/// process uses its real pid), so a merged multi-process trace renders as
/// one timeline per process in Perfetto. Returns the number of span events
/// written; throws std::runtime_error naming `path` if the file cannot be
/// written (netgym::write_file_bytes). Serial sections only.
std::uint64_t write_chrome_trace(const std::string& path);

/// Spans lost to ring overflow across all threads since the last start().
std::uint64_t dropped_spans();

/// Spans currently held in the rings (i.e. what write_chrome_trace would
/// emit), across all threads.
std::uint64_t recorded_spans();

/// Monotonically increasing span id for cross-process parent/child links
/// (never returns 0, the "no id" sentinel). Safe from any thread.
std::uint64_t next_span_id();

/// Drain every thread's ring into owned copies (tid filled in, absolute
/// timestamps preserved) and reset the rings, accumulating overflow drops
/// into `dropped`. The shipping side of distributed trace propagation
/// (DESIGN.md S5j): workers call this after each work unit and piggyback the
/// batch on the result frame. Serial sections only.
struct CollectedSpans {
  std::vector<RemoteSpan> spans;
  std::uint64_t dropped = 0;
};
CollectedSpans collect_and_reset();

/// Register spans shipped from another process under a `pid` lane labelled
/// `label` (e.g. "worker-2"). write_chrome_trace emits them alongside the
/// local process's spans, giving one merged multi-process trace file.
/// Cleared by start(). Safe from any thread.
void add_remote_spans(std::int64_t pid, const std::string& label,
                      std::vector<RemoteSpan> spans);

/// Remote spans currently registered for the merged flush.
std::uint64_t remote_span_count();

/// Record a span with explicit timestamps (from `now_ns()`). For code that
/// interleaves logical regions on one thread — e.g. lockstepped episodes,
/// which start and finish at different ticks of a shared loop — and so
/// cannot scope an RAII TraceSpan per region. No-op while tracing is off.
inline void emit_span(const char* name, const char* cat, std::int64_t start_ns,
                      std::int64_t dur_ns, std::int64_t index = -1,
                      std::uint64_t span_id = 0, std::uint64_t parent_id = 0) {
  if (!enabled()) return;
  detail::emit({name, cat, start_ns, dur_ns, index, span_id, parent_id});
}

/// RAII span. Records [construction, destruction) of the enclosing scope
/// under `name`, categorized by `cat` (rl / genet / env / pool / cli --
/// Perfetto colors and filters by category), optionally tagged with an item
/// index rendered into the event's args. Enabled-ness is sampled at
/// construction: spans open across a stop() are simply not recorded.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "task",
                     std::int64_t index = -1, std::uint64_t span_id = 0)
      : name_(name),
        cat_(cat),
        index_(index),
        span_id_(span_id),
        active_(enabled()) {
    if (active_) start_ns_ = now_ns();
  }
  ~TraceSpan() { end(); }

  /// Close the span before scope exit (phase spans inside one function);
  /// idempotent, and the destructor becomes a no-op afterwards.
  void end() {
    if (!active_) return;
    active_ = false;
    if (!enabled()) return;
    detail::emit(
        {name_, cat_, start_ns_, now_ns() - start_ns_, index_, span_id_, 0});
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::int64_t index_;
  std::uint64_t span_id_;
  bool active_;
  std::int64_t start_ns_ = 0;
};

}  // namespace netgym::tracing
