// Pins the strict-mode determinism contract of the batched math layer
// (DESIGN.md, "Batched math layer"): a batched forward/backward pass is
// bit-identical to looping the per-sample one — outputs, cached
// activations, and accumulated gradients alike — at any batch size and
// under any batch split. Everything downstream (lockstep rollouts, batched
// A2C/PPO updates, golden checkpoints) leans on exactly this property.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "netgym/parallel.hpp"
#include "netgym/rng.hpp"
#include "nn/gemm.hpp"
#include "nn/mlp.hpp"
#include "rl/policy.hpp"

namespace {

using netgym::Rng;
using nn::Activation;
using nn::Mlp;

struct MathModeGuard {
  ~MathModeGuard() { nn::set_math_mode(nn::MathMode::kStrict); }
};

/// Restores the default pool width on scope exit.
struct PoolGuard {
  ~PoolGuard() { netgym::set_num_threads(0); }
};

std::vector<double> batch_inputs(int n, int width, double scale) {
  std::vector<double> x(static_cast<std::size_t>(n) * width);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = scale * std::sin(0.37 * static_cast<double>(i + 1));
  }
  return x;
}

class BatchedEquivalenceTest : public ::testing::TestWithParam<Activation> {};

TEST_P(BatchedEquivalenceTest, ForwardBatchMatchesLoopedForwardBitForBit) {
  Rng rng(11);
  Mlp net(std::vector<int>{6, 32, 32, 4}, GetParam(), rng);
  Mlp loop_net = net;  // identical parameters, independent scratch
  for (int n : {1, 2, 5, 32, 70, 128, 512}) {
    const std::vector<double> x = batch_inputs(n, 6, 1.0);
    const std::vector<double>& batched = net.forward_batch(x.data(), n);
    ASSERT_EQ(batched.size(), static_cast<std::size_t>(n) * 4);
    for (int m = 0; m < n; ++m) {
      const std::vector<double> one(x.begin() + m * 6, x.begin() + (m + 1) * 6);
      const std::vector<double>& y = loop_net.forward(one);
      for (int j = 0; j < 4; ++j) {
        EXPECT_EQ(y[j], batched[static_cast<std::size_t>(m) * 4 + j])
            << "n=" << n << " row=" << m << " col=" << j;
      }
    }
  }
}

TEST_P(BatchedEquivalenceTest, BackwardBatchAccumulatesIdenticalGradients) {
  Rng rng(23);
  Mlp net(std::vector<int>{5, 16, 3}, GetParam(), rng);
  Mlp loop_net = net;
  const int n = 13;
  const std::vector<double> x = batch_inputs(n, 5, 0.8);
  const std::vector<double> g = batch_inputs(n, 3, 0.5);

  // Two successive batches without zero_grad in between: accumulation on
  // top of existing gradients must also be order-exact.
  for (int round = 0; round < 2; ++round) {
    net.forward_batch(x.data(), n);
    net.backward_batch(g.data(), n);
    for (int m = 0; m < n; ++m) {
      const std::vector<double> one_x(x.begin() + m * 5,
                                      x.begin() + (m + 1) * 5);
      const std::vector<double> one_g(g.begin() + m * 3,
                                      g.begin() + (m + 1) * 3);
      loop_net.forward(one_x);
      loop_net.backward(one_g);
    }
    EXPECT_EQ(net.grads(), loop_net.grads()) << "round " << round;
  }
}

TEST_P(BatchedEquivalenceTest, SplitBatchesMatchOneBatch) {
  Rng rng(31);
  Mlp whole(std::vector<int>{4, 12, 2}, GetParam(), rng);
  Mlp split = whole;
  const int n = 9;
  const std::vector<double> x = batch_inputs(n, 4, 1.2);
  const std::vector<double> g = batch_inputs(n, 2, 0.6);

  whole.forward_batch(x.data(), n);
  whole.backward_batch(g.data(), n);

  const int first = 4;
  std::vector<double> out_split;
  {
    const std::vector<double>& top = split.forward_batch(x.data(), first);
    out_split.assign(top.begin(), top.end());
    split.backward_batch(g.data(), first);
  }
  {
    const std::vector<double>& bottom = split.forward_batch(
        x.data() + static_cast<std::size_t>(first) * 4, n - first);
    out_split.insert(out_split.end(), bottom.begin(), bottom.end());
    split.backward_batch(g.data() + static_cast<std::size_t>(first) * 2,
                         n - first);
  }

  // Outputs were consumed before the second forward overwrote the scratch;
  // compare against a fresh whole-batch forward.
  Mlp check = whole;
  const std::vector<double>& out_whole = check.forward_batch(x.data(), n);
  EXPECT_EQ(out_split, out_whole);
  EXPECT_EQ(whole.grads(), split.grads());
}

// Batch sizes around the row-block edges (nn::kRowBlock = 256): one block,
// one block plus a row, two blocks, two plus a row, and a PPO-sized batch.
const int kBlockEdgeBatches[] = {255, 256, 257, 511, 512, 513, 1764};

/// Outputs and accumulated gradients of one batched forward + backward over
/// `n` rows, on a copy of `net` whose gradients hold a non-zero seed.
struct BatchedPass {
  std::vector<double> out;
  std::vector<double> grads;
};

std::vector<double> prior_grads(const Mlp& net) {
  return batch_inputs(static_cast<int>(net.num_params()), 1, 0.01);
}

BatchedPass batched_pass(const Mlp& net, int n) {
  Mlp copy = net;
  copy.grads() = prior_grads(net);
  const std::vector<double> x = batch_inputs(n, 6, 1.0);
  const std::vector<double> g = batch_inputs(n, 4, 0.3);
  BatchedPass pass;
  const std::vector<double>& out = copy.forward_batch(x.data(), n);
  pass.out.assign(out.begin(), out.end());
  copy.backward_batch(g.data(), n);
  pass.grads = copy.grads();
  return pass;
}

TEST_P(BatchedEquivalenceTest, RowBlocksMatchLoopedSamplesAtAnyPoolWidth) {
  // Every row-block edge, at 1, 2 and 4 pool threads: outputs and gradients
  // accumulated on top of non-zero prior gradients must equal the
  // per-sample loop's bits.
  PoolGuard guard;
  Rng rng(41);
  const Mlp net(std::vector<int>{6, 32, 32, 4}, GetParam(), rng);
  for (int n : kBlockEdgeBatches) {
    Mlp loop_net = net;
    loop_net.grads() = prior_grads(net);
    const std::vector<double> x = batch_inputs(n, 6, 1.0);
    const std::vector<double> g = batch_inputs(n, 4, 0.3);
    std::vector<double> loop_out;
    for (int m = 0; m < n; ++m) {
      const std::vector<double> one_x(x.begin() + m * 6,
                                      x.begin() + (m + 1) * 6);
      const std::vector<double>& y = loop_net.forward(one_x);
      loop_out.insert(loop_out.end(), y.begin(), y.end());
      loop_net.backward(std::vector<double>(g.begin() + m * 4,
                                            g.begin() + (m + 1) * 4));
    }
    for (int threads : {1, 2, 4}) {
      netgym::set_num_threads(threads);
      const BatchedPass pass = batched_pass(net, n);
      EXPECT_EQ(pass.out, loop_out) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(pass.grads, loop_net.grads())
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST_P(BatchedEquivalenceTest, FastModeRowBlocksIgnorePoolWidth) {
  // Fast mode is not bit-identical to strict, but the row blocks depend on
  // the batch alone, so the same batch gives the same bits at any width.
  MathModeGuard math_guard;
  PoolGuard pool_guard;
  nn::set_math_mode(nn::MathMode::kFast);
  Rng rng(43);
  const Mlp net(std::vector<int>{6, 32, 32, 4}, GetParam(), rng);
  for (int n : kBlockEdgeBatches) {
    netgym::set_num_threads(1);
    const BatchedPass serial = batched_pass(net, n);
    for (int threads : {2, 4}) {
      netgym::set_num_threads(threads);
      const BatchedPass pass = batched_pass(net, n);
      EXPECT_EQ(pass.out, serial.out) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(pass.grads, serial.grads)
          << "n=" << n << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, BatchedEquivalenceTest,
                         ::testing::Values(Activation::kTanh,
                                           Activation::kRelu));

TEST(BatchedEquivalence, FastModeSingleSampleMatchesStrict) {
  // The n==1 forward path is the plain dot-product kernel, which fast mode
  // does not alter: per-sample inference gives the same bits in both modes
  // (so flipping GENET_MATH cannot change greedy evaluation of one sample).
  MathModeGuard guard;
  Rng rng(7);
  Mlp net(std::vector<int>{6, 32, 32, 4}, Activation::kTanh, rng);
  const std::vector<double> x = batch_inputs(1, 6, 1.0);
  const std::vector<double> strict_out = net.forward(x);
  nn::set_math_mode(nn::MathMode::kFast);
  const std::vector<double>& fast_out = net.forward(x);
  EXPECT_EQ(strict_out, fast_out);
}

TEST(BatchedEquivalence, PolicyActBatchMatchesScalarActDrawForDraw) {
  Rng init(3);
  rl::MlpPolicy policy(5, 4, {16, 16}, init);
  rl::MlpPolicy scalar_policy = policy;

  const int n = 8;
  const std::vector<double> obs = batch_inputs(n, 5, 1.0);

  // One independent stream per row, forked identically for both paths.
  Rng root_a(99);
  Rng root_b(99);
  std::vector<Rng> streams_a;
  std::vector<Rng> streams_b;
  for (int i = 0; i < n; ++i) {
    streams_a.push_back(root_a.fork());
    streams_b.push_back(root_b.fork());
  }

  std::vector<int> batched_actions(n);
  std::vector<Rng*> rng_ptrs(n);
  for (int i = 0; i < n; ++i) rng_ptrs[i] = &streams_a[static_cast<std::size_t>(i)];
  policy.act_batch(obs.data(), n, rng_ptrs.data(), batched_actions.data());

  for (int i = 0; i < n; ++i) {
    const netgym::Observation one(obs.begin() + i * 5, obs.begin() + (i + 1) * 5);
    const int action = scalar_policy.act(one, streams_b[static_cast<std::size_t>(i)]);
    EXPECT_EQ(action, batched_actions[static_cast<std::size_t>(i)]) << "row " << i;
    // Identical draw counts: the streams must be in the same state after.
    EXPECT_EQ(streams_a[static_cast<std::size_t>(i)].uniform(0.0, 1.0),
              streams_b[static_cast<std::size_t>(i)].uniform(0.0, 1.0));
  }
}

TEST(BatchedEquivalence, GreedyActBatchMatchesScalarAct) {
  Rng init(5);
  rl::MlpPolicy policy(4, 6, {8}, init);
  policy.set_greedy(true);
  rl::MlpPolicy scalar_policy = policy;

  const int n = 5;
  const std::vector<double> obs = batch_inputs(n, 4, 0.9);
  std::vector<int> batched_actions(n);
  Rng unused(1);
  std::vector<Rng*> rng_ptrs(n, &unused);
  policy.act_batch(obs.data(), n, rng_ptrs.data(), batched_actions.data());
  for (int i = 0; i < n; ++i) {
    const netgym::Observation one(obs.begin() + i * 4, obs.begin() + (i + 1) * 4);
    EXPECT_EQ(scalar_policy.act(one, unused),
              batched_actions[static_cast<std::size_t>(i)]);
  }
}

TEST(BatchedEquivalence, BackwardBatchRequiresMatchingForward) {
  Rng rng(1);
  Mlp net(std::vector<int>{3, 4, 2}, Activation::kTanh, rng);
  const std::vector<double> g(2 * 4, 0.1);
  EXPECT_THROW(net.backward_batch(g.data(), 4), std::logic_error);
  const std::vector<double> x = batch_inputs(2, 3, 1.0);
  net.forward_batch(x.data(), 2);
  EXPECT_THROW(net.backward_batch(g.data(), 4), std::invalid_argument);
  net.backward_batch(g.data(), 2);  // matching size is fine
}

}  // namespace
