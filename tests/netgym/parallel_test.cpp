#include "netgym/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

/// Restores the global pool to its default size when a test exits, so thread
///-count changes never leak between tests.
struct PoolGuard {
  ~PoolGuard() { netgym::set_num_threads(0); }
};

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  netgym::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  constexpr std::size_t kItems = 1000;
  std::vector<std::atomic<int>> hits(kItems);
  pool.for_each(kItems, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInOrderOnCaller) {
  netgym::ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.for_each(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // no synchronization needed: serial by contract
  });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  netgym::ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  int runs = 0;
  pool.for_each(3, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 3);
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  netgym::ThreadPool pool(2);
  pool.for_each(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, RethrowsFirstExceptionAfterFinishingAllItems) {
  netgym::ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.for_each(64,
                    [&](std::size_t i) {
                      if (i == 7) throw std::runtime_error("item 7");
                      completed.fetch_add(1, std::memory_order_relaxed);
                    }),
      std::runtime_error);
  // Every non-throwing item still ran; the pool is usable afterwards.
  EXPECT_EQ(completed.load(), 63);
  int runs = 0;
  pool.for_each(1, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPool, NestedForEachRunsInlineWithoutDeadlock) {
  netgym::ThreadPool pool(4);
  std::vector<std::atomic<int>> inner_hits(8 * 8);
  pool.for_each(8, [&](std::size_t outer) {
    pool.for_each(8, [&](std::size_t inner) {
      inner_hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (auto& hit : inner_hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, BackToBackJobsReuseWorkers) {
  netgym::ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> runs{0};
    pool.for_each(17, [&](std::size_t) {
      runs.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(runs.load(), 17) << "round " << round;
  }
}

TEST(ThreadPool, BusyPoolRunsASecondCallersItemsInline) {
  // Job A's first item waits for job B to finish, and both come from
  // outside the pool. If B waited for A's job to drain, neither would ever
  // finish; a busy pool instead runs B's items on B's own thread. The wait
  // is bounded so that a regression fails here instead of hanging.
  netgym::ThreadPool pool(2);
  std::promise<void> a_started;
  std::promise<void> b_done;
  std::shared_future<void> b_done_future = b_done.get_future().share();
  std::atomic<bool> a_timed_out{false};
  std::thread a([&] {
    pool.for_each(2, [&](std::size_t i) {
      if (i != 0) return;
      a_started.set_value();
      if (b_done_future.wait_for(std::chrono::seconds(10)) !=
          std::future_status::ready) {
        a_timed_out = true;
      }
    });
  });
  a_started.get_future().wait();
  const std::thread::id b_thread = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(3);
  pool.for_each(3, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  b_done.set_value();
  a.join();
  EXPECT_FALSE(a_timed_out.load()) << "job B waited for job A to drain";
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, b_thread);
}

TEST(GlobalPool, SetNumThreadsControlsNumThreads) {
  PoolGuard guard;
  netgym::set_num_threads(3);
  EXPECT_EQ(netgym::num_threads(), 3);
  netgym::set_num_threads(1);
  EXPECT_EQ(netgym::num_threads(), 1);
  netgym::set_num_threads(0);  // back to the GENET_THREADS/hardware default
  EXPECT_GE(netgym::num_threads(), 1);
}

TEST(GlobalPool, ParallelForEachCoversAllIndices) {
  PoolGuard guard;
  for (int threads : {1, 2, 8}) {
    netgym::set_num_threads(threads);
    std::vector<std::atomic<int>> hits(257);
    netgym::parallel_for_each(hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << threads << " threads, index " << i;
    }
  }
}

}  // namespace
