#include "netgym/parallel.hpp"

#include <memory>

#include "netgym/parse.hpp"
#include "netgym/tracing.hpp"

namespace netgym {

namespace {

/// True on any thread currently executing pool items — both threads owned by
/// a ThreadPool and a caller participating in its own job. Nested for_each
/// calls from such a thread run inline instead of re-entering the pool,
/// which would deadlock (caller) or corrupt the in-flight job (worker).
thread_local bool t_inside_pool_worker = false;

/// Scoped setter for t_inside_pool_worker (exception-safe restore).
struct InsidePoolScope {
  InsidePoolScope() { t_inside_pool_worker = true; }
  ~InsidePoolScope() { t_inside_pool_worker = false; }
};

}  // namespace

ThreadPool::ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 0; t < threads_ - 1; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::run_items(const std::function<void(std::size_t)>& fn,
                           std::size_t n) {
  for (;;) {
    const std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    try {
      // Per-item span in the *worker's* thread-local ring: the trace shows
      // which thread ran which item index.
      tracing::TraceSpan span("pool.item", "pool",
                              static_cast<std::int64_t>(i));
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  t_inside_pool_worker = true;
  std::uint64_t last_job = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [&] { return shutdown_ || job_id_ != last_job; });
    if (shutdown_) return;
    last_job = job_id_;
    const std::function<void(std::size_t)>* fn = job_fn_;
    const std::size_t n = job_n_;
    lock.unlock();
    {
      tracing::TraceSpan span("pool.job", "pool",
                              static_cast<std::int64_t>(n));
      run_items(*fn, n);
    }
    lock.lock();
    if (--active_workers_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::for_each(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Serial fallback: one-thread pool, trivial jobs, and nested calls from a
  // worker all run inline on the calling thread.
  if (threads_ == 1 || n == 1 || t_inside_pool_worker) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One job at a time: while another caller's job holds the pool, this
  // caller runs its own items inline instead of waiting for that job to
  // drain. Items touch only per-index state, so the results are the same.
  std::unique_lock<std::mutex> job_lock(job_serial_mu_, std::try_to_lock);
  if (!job_lock.owns_lock()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_fn_ = &fn;
    job_n_ = n;
    next_index_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    active_workers_ = static_cast<int>(workers_.size());
    ++job_id_;
  }
  work_cv_.notify_all();
  {
    // The caller is a full participant; while it runs items, nested for_each
    // calls from those items must go inline like on any other worker.
    InsidePoolScope inside;
    tracing::TraceSpan span("pool.job", "pool", static_cast<std::int64_t>(n));
    run_items(fn, n);
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return active_workers_ == 0; });
  job_fn_ = nullptr;
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;   // guarded by g_pool_mu
int g_requested_threads = 0;          // 0 = unset, fall back to the default

/// Worker-thread ceiling for the GENET_THREADS knob: far above any sane pool
/// size, but low enough to catch a pasted timestamp or byte count.
constexpr std::int64_t kMaxThreads = 4096;

int default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hw_threads = hw == 0 ? 1 : static_cast<int>(hw);
  // Strict parse: GENET_THREADS=abc or =2x throws instead of silently
  // falling back to hardware concurrency (the pre-strict atoi behaviour).
  return static_cast<int>(env_i64("GENET_THREADS", hw_threads, 1, kMaxThreads));
}

/// The global pool, created on first use; call with g_pool_mu held.
ThreadPool& global_pool_locked() {
  if (!g_pool) {
    const int threads =
        g_requested_threads >= 1 ? g_requested_threads : default_thread_count();
    g_pool = std::make_unique<ThreadPool>(threads);
  }
  return *g_pool;
}

}  // namespace

int num_threads() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  return global_pool_locked().threads();
}

void set_num_threads(int n) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_requested_threads = n < 1 ? 0 : n;
  g_pool.reset();  // next parallel_for_each rebuilds at the new size
}

void parallel_for_each(std::size_t n,
                       const std::function<void(std::size_t)>& fn) {
  ThreadPool* pool = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    pool = &global_pool_locked();
  }
  pool->for_each(n, fn);
}

}  // namespace netgym
