#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace netgym {

/// A small fixed-size pool of worker threads used by every hot loop in the
/// library (rollout collection, Genet's gap evaluations, the bench sweeps).
///
/// The pool executes index-based jobs: `for_each(n, fn)` runs `fn(i)` for
/// every `i` in `[0, n)`, distributing indices across the workers plus the
/// calling thread, and blocks until all items finished. Work items must only
/// touch per-index state (their own result slot, their own pre-forked Rng);
/// under that contract the execution schedule is invisible and parallel
/// results are bit-identical to serial ones (see DESIGN.md, "Threading
/// model").
///
/// Nested `for_each` calls issued from inside a worker run inline on that
/// worker, so composed parallel loops (a bench sweep whose body trains a
/// policy) never deadlock and never oversubscribe. A busy pool does the same
/// for a second outside caller (see `for_each`).
class ThreadPool {
 public:
  /// Creates `threads - 1` workers (the caller is the remaining thread);
  /// values below 1 are clamped to 1, which makes the pool fully serial.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads participating in a job, including the caller (>= 1).
  int threads() const { return threads_; }

  /// Run `fn(0) .. fn(n-1)`, possibly in parallel; blocks until every item
  /// completed. The first exception thrown by any item is rethrown here
  /// (remaining items still run). Safe to call from inside a running item
  /// (the nested call runs inline) and from concurrent non-worker threads:
  /// while one caller's job holds the pool, another caller runs its items
  /// inline on its own thread, so no caller ever waits on another's job.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void run_items(const std::function<void(std::size_t)>& fn, std::size_t n);

  int threads_;
  std::vector<std::thread> workers_;

  /// Held by the publishing caller for a job's whole lifetime; a second
  /// non-worker caller that cannot take it runs its job inline instead of
  /// clobbering this job's state.
  std::mutex job_serial_mu_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Current job, published under mu_ with a fresh job_id_; workers latch the
  // id so each job is executed exactly once per worker.
  std::uint64_t job_id_ = 0;
  std::size_t job_n_ = 0;
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::atomic<std::size_t> next_index_{0};
  int active_workers_ = 0;
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

/// Number of threads the global pool uses (>= 1). Resolution order: the last
/// `set_num_threads` call, else the `GENET_THREADS` environment variable,
/// else the hardware concurrency.
int num_threads();

/// Resize the global pool: `n >= 1` pins it to exactly `n` threads, `n <= 0`
/// resets to the default (GENET_THREADS or hardware concurrency). Takes
/// effect immediately; must not race with an in-flight parallel_for_each.
void set_num_threads(int n);

/// Run `fn(i)` for `i` in `[0, n)` on the global pool. Serial when the pool
/// has one thread, when `n <= 1`, when called from inside a pool worker, or
/// when another caller's job holds the pool; parallel otherwise. Blocks until
/// all items finish and rethrows the first exception. Items must only touch
/// per-index state.
void parallel_for_each(std::size_t n,
                       const std::function<void(std::size_t)>& fn);

}  // namespace netgym
