#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "nn/adam.hpp"

namespace {

using netgym::Rng;
using nn::Activation;
using nn::Mlp;

TEST(Mlp, ValidatesConstruction) {
  Rng rng(1);
  EXPECT_THROW(Mlp({5}, Activation::kTanh, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({5, 0, 2}, Activation::kTanh, rng), std::invalid_argument);
}

TEST(Mlp, ForwardShapeAndDeterminism) {
  Rng rng(1);
  Mlp net({4, 8, 3}, Activation::kTanh, rng);
  const std::vector<double> x{0.1, -0.2, 0.3, 0.4};
  const auto y1 = net.forward(x);
  const auto y2 = net.forward(x);
  ASSERT_EQ(y1.size(), 3u);
  EXPECT_EQ(y1, y2);
}

TEST(Mlp, ForwardRejectsWrongInputSize) {
  Rng rng(1);
  Mlp net({4, 3}, Activation::kTanh, rng);
  EXPECT_THROW(net.forward({1.0}), std::invalid_argument);
}

TEST(Mlp, BackwardRequiresForward) {
  Rng rng(1);
  Mlp net({2, 2}, Activation::kTanh, rng);
  EXPECT_THROW(net.backward({1.0, 0.0}), std::logic_error);
}

TEST(Mlp, SetParamsRoundTripsAndValidates) {
  Rng rng(1);
  Mlp a({3, 5, 2}, Activation::kTanh, rng);
  Mlp b({3, 5, 2}, Activation::kTanh, rng);
  b.set_params(a.params());
  const std::vector<double> x{0.5, -1.0, 2.0};
  EXPECT_EQ(a.forward(x), b.forward(x));
  EXPECT_THROW(a.set_params({1.0}), std::invalid_argument);
}

/// Finite-difference gradient check: the core correctness property of the
/// whole training stack. Loss = sum_j c_j * y_j for random c.
class MlpGradientCheck
    : public ::testing::TestWithParam<std::tuple<std::vector<int>, int>> {};

TEST_P(MlpGradientCheck, MatchesFiniteDifferences) {
  const auto& [sizes, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const Activation act = seed % 2 == 0 ? Activation::kTanh
                                       : Activation::kRelu;
  Mlp net(sizes, act, rng);
  std::vector<double> x(static_cast<std::size_t>(sizes.front()));
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> c(static_cast<std::size_t>(sizes.back()));
  for (double& v : c) v = rng.uniform(-1.0, 1.0);

  auto loss = [&]() {
    const auto y = net.forward(x);
    double acc = 0.0;
    for (std::size_t j = 0; j < y.size(); ++j) acc += c[j] * y[j];
    return acc;
  };

  net.zero_grad();
  loss();  // populate the forward cache
  net.backward(c);
  const std::vector<double> analytic = net.grads();

  const double eps = 1e-6;
  std::vector<double> params = net.params();
  // Spot-check a spread of parameters (checking all ~1000 is wasteful).
  for (std::size_t i = 0; i < params.size();
       i += std::max<std::size_t>(params.size() / 37, 1)) {
    const double original = params[i];
    params[i] = original + eps;
    net.set_params(params);
    const double up = loss();
    params[i] = original - eps;
    net.set_params(params);
    const double down = loss();
    params[i] = original;
    net.set_params(params);
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, 1e-4 * std::max(1.0, std::abs(numeric)))
        << "param index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpGradientCheck,
    ::testing::Values(
        std::make_tuple(std::vector<int>{3, 4, 2}, 0),
        std::make_tuple(std::vector<int>{3, 4, 2}, 1),
        std::make_tuple(std::vector<int>{5, 8, 8, 3}, 2),
        std::make_tuple(std::vector<int>{5, 8, 8, 3}, 3),
        std::make_tuple(std::vector<int>{1, 16, 1}, 4),
        std::make_tuple(std::vector<int>{10, 32, 32, 6}, 6)));

TEST(Mlp, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(3);
  Mlp net({2, 3, 1}, Activation::kTanh, rng);
  const std::vector<double> x{0.3, -0.7};
  net.zero_grad();
  net.forward(x);
  net.backward({1.0});
  const std::vector<double> once = net.grads();
  net.forward(x);
  net.backward({1.0});
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(net.grads()[i], 2 * once[i], 1e-12);
  }
  net.zero_grad();
  for (double g : net.grads()) EXPECT_EQ(g, 0.0);
}

/// The transposed weights a batched forward multiplies by are cached and
/// rebuilt only when the parameters change. After every path that writes
/// parameters, a batched forward of a net whose cache was already built must
/// equal, bit for bit, that of a freshly built net holding the same
/// parameters.
class MlpTransposeCache : public ::testing::TestWithParam<std::size_t> {
 protected:
  static Mlp make(std::uint64_t seed) {
    Rng rng(seed);
    return Mlp({6, 16, 16, 4}, Activation::kTanh, rng);
  }

  static std::vector<std::uint64_t> bits(const std::vector<double>& v) {
    std::vector<std::uint64_t> out;
    for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  }

  std::vector<double> inputs() const {
    Rng rng(7);
    std::vector<double> x(GetParam() * 6);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    return x;
  }

  /// Runs a batched forward, which builds `net`'s cache from its parameters.
  void warm(Mlp& net) const { net.forward_batch(inputs().data(), GetParam()); }

  void expect_matches_fresh(Mlp& net) const {
    const std::vector<double> x = inputs();
    const std::vector<double> got = net.forward_batch(x.data(), GetParam());
    Mlp fresh = make(99);
    fresh.set_params(net.params());
    EXPECT_EQ(bits(got), bits(fresh.forward_batch(x.data(), GetParam())));
  }
};

TEST_P(MlpTransposeCache, OptimizerStep) {
  Mlp net = make(1);
  nn::Adam adam(net.num_params());
  warm(net);
  const std::vector<double> g(GetParam() * 4, 0.5);
  net.backward_batch(g.data(), GetParam());
  const std::vector<double> before = net.params();
  net.apply(adam);
  ASSERT_NE(net.params(), before);
  expect_matches_fresh(net);
}

TEST_P(MlpTransposeCache, SetParams) {
  Mlp net = make(1);
  warm(net);
  net.set_params(make(2).params());
  expect_matches_fresh(net);
}

TEST_P(MlpTransposeCache, LoadState) {
  Mlp net = make(1);
  warm(net);
  netgym::checkpoint::Snapshot snap;
  make(2).save_state(snap, "net/");
  net.load_state(snap, "net/");
  expect_matches_fresh(net);
}

TEST_P(MlpTransposeCache, CopyAssignment) {
  Mlp net = make(1);
  Mlp other = make(2);
  warm(net);
  warm(other);
  net = other;
  expect_matches_fresh(net);
}

TEST_P(MlpTransposeCache, CopyAndMoveConstruction) {
  Mlp net = make(1);
  warm(net);
  Mlp copy(net);
  expect_matches_fresh(copy);
  Mlp moved(std::move(net));
  expect_matches_fresh(moved);
  // The copy owns its cache: a later write to it leaves `moved` alone.
  copy.set_params(make(2).params());
  expect_matches_fresh(copy);
  expect_matches_fresh(moved);
}

INSTANTIATE_TEST_SUITE_P(Batch, MlpTransposeCache,
                         ::testing::Values(2, 16, 64));

TEST(Softmax, NormalizesAndOrders) {
  const auto p = nn::softmax({1.0, 2.0, 3.0});
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(Softmax, StableUnderLargeLogits) {
  const auto p = nn::softmax({1000.0, 1000.0});
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
}

TEST(Softmax, RejectsEmptyInput) {
  EXPECT_THROW(nn::softmax({}), std::invalid_argument);
}

TEST(LogSoftmax, MatchesLogOfSoftmax) {
  const std::vector<double> z{0.5, -1.0, 2.0};
  const auto p = nn::softmax(z);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(nn::log_softmax_at(z, i), std::log(p[static_cast<std::size_t>(i)]), 1e-12);
  }
  EXPECT_THROW(nn::log_softmax_at(z, 3), std::invalid_argument);
  EXPECT_THROW(nn::log_softmax_at(z, -1), std::invalid_argument);
}

}  // namespace
