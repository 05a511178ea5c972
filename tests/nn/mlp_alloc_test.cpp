// Pins the allocation-churn fix in the batched math layer: once warmed up,
// Mlp::forward_batch / backward_batch and the per-sample policy act path
// must perform zero heap allocations (scratch buffers are members that only
// grow). Overriding global operator new/delete is per-binary, so this
// counter lives in the shared test executable and simply ignores all other
// tests: each test here reads the counter only across its own hot loop.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "netgym/rng.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "rl/policy.hpp"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using netgym::Rng;
using nn::Activation;
using nn::Mlp;

long allocations_during(const std::function<void()>& fn) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(MlpAlloc, SteadyStateBatchedPassesAreAllocationFree) {
  Rng rng(1);
  Mlp net(std::vector<int>{8, 32, 32, 5}, Activation::kTanh, rng);
  const int n = 32;
  std::vector<double> x(static_cast<std::size_t>(n) * 8, 0.25);
  std::vector<double> g(static_cast<std::size_t>(n) * 5, 0.1);
  // Warm-up sizes the scratch buffers.
  for (int i = 0; i < 2; ++i) {
    net.forward_batch(x.data(), n);
    net.backward_batch(g.data(), n);
  }
  const long allocs = allocations_during([&] {
    for (int i = 0; i < 10; ++i) {
      net.forward_batch(x.data(), n);
      net.backward_batch(g.data(), n);
      net.zero_grad();
    }
  });
  EXPECT_EQ(allocs, 0);
}

TEST(MlpAlloc, TrainingStepThenForwardIsAllocationFree) {
  // An optimizer step marks the transposed weights stale; the next batched
  // forward rebuilds them in the buffer the first one sized.
  Rng rng(6);
  Mlp net(std::vector<int>{8, 32, 32, 5}, Activation::kTanh, rng);
  nn::Adam adam(net.num_params());
  const int n = 32;
  std::vector<double> x(static_cast<std::size_t>(n) * 8, 0.25);
  std::vector<double> g(static_cast<std::size_t>(n) * 5, 0.1);
  const auto train_step = [&] {
    net.forward_batch(x.data(), n);
    net.backward_batch(g.data(), n);
    net.apply(adam);
    net.zero_grad();
  };
  for (int i = 0; i < 2; ++i) train_step();  // warm-up sizes every buffer
  const long allocs = allocations_during([&] {
    for (int i = 0; i < 10; ++i) train_step();
    net.forward_batch(x.data(), n);
  });
  EXPECT_EQ(allocs, 0);
}

TEST(MlpAlloc, SmallerBatchAfterLargerOneStaysAllocationFree) {
  // Buffers only grow: after a warm-up at the largest batch, any smaller
  // batch must reuse them.
  Rng rng(2);
  Mlp net(std::vector<int>{6, 16, 3}, Activation::kTanh, rng);
  std::vector<double> x(64 * 6, 0.5);
  std::vector<double> g(64 * 3, 0.2);
  net.forward_batch(x.data(), 64);
  net.backward_batch(g.data(), 64);
  const long allocs = allocations_during([&] {
    for (int n : {1, 7, 32, 64, 5}) {
      net.forward_batch(x.data(), static_cast<std::size_t>(n));
      net.backward_batch(g.data(), static_cast<std::size_t>(n));
    }
  });
  EXPECT_EQ(allocs, 0);
}

TEST(MlpAlloc, PolicyActPathIsAllocationFree) {
  // The rollout inner loop: act() per step must not touch the heap (logits
  // live in the net's scratch, probabilities in the policy's).
  Rng init(3);
  rl::MlpPolicy policy(5, 4, {16, 16}, init);
  const netgym::Observation obs{0.1, -0.2, 0.3, 0.4, -0.5};
  Rng rng(9);
  policy.act(obs, rng);  // warm-up
  const long allocs = allocations_during([&] {
    for (int i = 0; i < 100; ++i) policy.act(obs, rng);
  });
  EXPECT_EQ(allocs, 0);

  // Greedy evaluation (deployment mode) as well.
  policy.set_greedy(true);
  policy.act(obs, rng);
  const long greedy_allocs = allocations_during([&] {
    for (int i = 0; i < 100; ++i) policy.act(obs, rng);
  });
  EXPECT_EQ(greedy_allocs, 0);
}

TEST(MlpAlloc, ActBatchSteadyStateIsAllocationFree) {
  Rng init(4);
  rl::MlpPolicy policy(4, 3, {8}, init);
  const int n = 16;
  std::vector<double> obs(static_cast<std::size_t>(n) * 4, 0.3);
  std::vector<int> actions(n);
  std::vector<Rng> streams;
  Rng root(5);
  for (int i = 0; i < n; ++i) streams.push_back(root.fork());
  std::vector<Rng*> rng_ptrs(n);
  for (int i = 0; i < n; ++i) rng_ptrs[i] = &streams[static_cast<std::size_t>(i)];
  policy.act_batch(obs.data(), n, rng_ptrs.data(), actions.data());  // warm-up
  const long allocs = allocations_during([&] {
    for (int i = 0; i < 50; ++i) {
      policy.act_batch(obs.data(), n, rng_ptrs.data(), actions.data());
    }
  });
  EXPECT_EQ(allocs, 0);
}

}  // namespace
