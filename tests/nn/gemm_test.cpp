#include "nn/gemm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using nn::MathMode;

/// Restores strict mode on scope exit so a failing test cannot leak fast
/// mode into the rest of the suite (the determinism tests assume strict).
struct MathModeGuard {
  ~MathModeGuard() { nn::set_math_mode(MathMode::kStrict); }
};

std::vector<double> filled(int n, double scale) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = std::sin(scale * (i + 1));
  return v;
}

/// The definition the strict contract pins: ascending-k accumulation, one
/// multiply and one add per term, seeded from the existing C value.
void naive_gemm_nn(int M, int N, int K, const std::vector<double>& A,
                   const std::vector<double>& B, std::vector<double>& C) {
  for (int m = 0; m < M; ++m) {
    for (int n = 0; n < N; ++n) {
      double acc = C[static_cast<std::size_t>(m) * N + n];
      for (int k = 0; k < K; ++k) {
        acc += A[static_cast<std::size_t>(m) * K + k] *
               B[static_cast<std::size_t>(k) * N + n];
      }
      C[static_cast<std::size_t>(m) * N + n] = acc;
    }
  }
}

void naive_gemm_tn(int M, int N, int K, const std::vector<double>& A,
                   const std::vector<double>& B, std::vector<double>& C) {
  for (int m = 0; m < M; ++m) {
    for (int n = 0; n < N; ++n) {
      double acc = C[static_cast<std::size_t>(m) * N + n];
      for (int k = 0; k < K; ++k) {
        acc += A[static_cast<std::size_t>(k) * M + m] *
               B[static_cast<std::size_t>(k) * N + n];
      }
      C[static_cast<std::size_t>(m) * N + n] = acc;
    }
  }
}

struct Shape {
  int M, N, K;
};

// Exercises every tiling path: M=1 single row, N<4 (pure scalar tail),
// 4<=N<16 (quad + tail), N=16 (one full vector tile), odd N (tile + quad +
// tail), N=K=1 degenerate, a larger-than-cache-tile case, and the policy
// hidden layer (32x32) at serving batch sizes up to 512.
const Shape kShapes[] = {{1, 1, 1},     {1, 7, 5},    {3, 2, 9},
                         {5, 16, 16},   {4, 19, 11},  {32, 32, 32},
                         {8, 37, 3},    {64, 33, 17}, {128, 32, 32},
                         {512, 32, 32}};

// gemm_tn runs 4-row x 8-column register blocks, so its shapes add every
// M % 4 remainder (0-3; a single row takes the row kernel) against every
// N % 8 remainder (0-7, the masked column tail), plus the CC policy's
// weight-gradient shapes at a 1780-sample batch: first layer, action head
// and critic head.
std::vector<Shape> tn_shapes() {
  std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
  for (int m = 1; m <= 8; ++m) {
    for (int n = 1; n <= 16; ++n) shapes.push_back({m, n, 5});
  }
  shapes.insert(shapes.end(), {{32, 53, 1780}, {9, 32, 1780}, {1, 32, 1780}});
  return shapes;
}

TEST(Gemm, StrictMatchesNaiveBitForBit) {
  for (const Shape& s : kShapes) {
    const std::vector<double> a = filled(s.M * s.K, 0.3);
    const std::vector<double> b = filled(s.K * s.N, 0.7);
    std::vector<double> c_naive = filled(s.M * s.N, 1.1);  // nonzero seed
    std::vector<double> c_gemm = c_naive;
    naive_gemm_nn(s.M, s.N, s.K, a, b, c_naive);
    nn::gemm_nn(s.M, s.N, s.K, a.data(), b.data(), c_gemm.data());
    EXPECT_EQ(c_naive, c_gemm) << "gemm_nn " << s.M << "x" << s.N << "x" << s.K;
  }
}

TEST(Gemm, StrictTransposedMatchesNaiveBitForBit) {
  for (const Shape& s : tn_shapes()) {
    const std::vector<double> a = filled(s.K * s.M, 0.4);
    const std::vector<double> b = filled(s.K * s.N, 0.9);
    std::vector<double> c_naive = filled(s.M * s.N, 0.2);
    std::vector<double> c_gemm = c_naive;
    naive_gemm_tn(s.M, s.N, s.K, a, b, c_naive);
    nn::gemm_tn(s.M, s.N, s.K, a.data(), b.data(), c_gemm.data());
    EXPECT_EQ(c_naive, c_gemm) << "gemm_tn " << s.M << "x" << s.N << "x" << s.K;
  }
}

TEST(Gemm, ScalarKernelsMatchDispatchedStrict) {
  // When AVX2 is available, strict dispatches to the multiply-then-add
  // vector kernels; they must be indistinguishable from the scalar
  // reference (this is what makes the dispatch an implementation detail).
  for (const Shape& s : kShapes) {
    const std::vector<double> a = filled(s.M * s.K, 0.5);
    const std::vector<double> b = filled(s.K * s.N, 0.6);
    std::vector<double> c_scalar = filled(s.M * s.N, 0.8);
    std::vector<double> c_dispatch = c_scalar;
    nn::detail::gemm_nn_scalar(s.M, s.N, s.K, a.data(), b.data(),
                               c_scalar.data());
    nn::gemm_nn(s.M, s.N, s.K, a.data(), b.data(), c_dispatch.data());
    EXPECT_EQ(c_scalar, c_dispatch);
  }
  for (const Shape& s : tn_shapes()) {
    const std::vector<double> a = filled(s.K * s.M, 0.5);
    const std::vector<double> b = filled(s.K * s.N, 0.6);
    std::vector<double> c_scalar = filled(s.M * s.N, 0.8);
    std::vector<double> c_dispatch = c_scalar;
    nn::detail::gemm_tn_scalar(s.M, s.N, s.K, a.data(), b.data(),
                               c_scalar.data());
    nn::gemm_tn(s.M, s.N, s.K, a.data(), b.data(), c_dispatch.data());
    EXPECT_EQ(c_scalar, c_dispatch)
        << "gemm_tn " << s.M << "x" << s.N << "x" << s.K;
  }
}

TEST(Gemm, AccumulatesIntoExistingC) {
  const std::vector<double> a = filled(4, 0.3);  // 2x2
  const std::vector<double> b = filled(4, 0.7);
  std::vector<double> c{10.0, 20.0, 30.0, 40.0};
  std::vector<double> expected = c;
  naive_gemm_nn(2, 2, 2, a, b, expected);
  nn::gemm_nn(2, 2, 2, a.data(), b.data(), c.data());
  EXPECT_EQ(expected, c);
  EXPECT_GT(std::abs(c[0] - 10.0), 0.0);  // it really added something
}

TEST(Gemm, SplitBatchesAreBitIdenticalToOneCall) {
  // Rows of C depend only on the matching rows of A, so computing the top
  // and bottom halves in separate calls must give the same bits. This is
  // the property that makes lockstep rollout results independent of the
  // thread count / job grouping.
  const int M = 10;
  const int N = 13;
  const int K = 21;
  const std::vector<double> a = filled(M * K, 0.2);
  const std::vector<double> b = filled(K * N, 0.8);
  std::vector<double> c_whole(static_cast<std::size_t>(M) * N, 0.0);
  std::vector<double> c_split = c_whole;
  nn::gemm_nn(M, N, K, a.data(), b.data(), c_whole.data());
  const int top = 3;
  nn::gemm_nn(top, N, K, a.data(), b.data(), c_split.data());
  nn::gemm_nn(M - top, N, K, a.data() + static_cast<std::size_t>(top) * K,
              b.data(), c_split.data() + static_cast<std::size_t>(top) * N);
  EXPECT_EQ(c_whole, c_split);
}

TEST(Gemm, BatchedBeatsPerSampleAtBatch32) {
  // The batched layer exists to be faster: one 32x32+bias affine layer at
  // batch 32, computed as Mlp::forward_batch does it (bias-row seed, one
  // strict GEMM on the weight transpose the net keeps cached), against the
  // per-sample matvec loop it replaced. The two are timed interleaved and each keeps its fastest
  // repetition, so a preempted repetition cannot decide the verdict. The
  // AVX2 strict kernels must win by 2x; the portable scalar tiling must at
  // least not lose.
  MathModeGuard guard;
  nn::set_math_mode(MathMode::kStrict);
  constexpr int kBatch = 32;
  constexpr int kIn = 32;
  constexpr int kOut = 32;
  constexpr int kPassesPerRep = 200;
  constexpr int kReps = 25;
  const std::vector<double> w = filled(kOut * kIn, 0.05);
  const std::vector<double> bias = filled(kOut, 0.01);
  const std::vector<double> inputs = filled(kBatch * kIn, 0.1);
  std::vector<double> wt(w.size());
  nn::transpose(kOut, kIn, w.data(), wt.data());
  std::vector<double> out_loop(static_cast<std::size_t>(kBatch) * kOut);
  std::vector<double> out_gemm(out_loop.size());

  const auto per_sample = [&] {
    for (int m = 0; m < kBatch; ++m) {
      const double* a = inputs.data() + static_cast<std::size_t>(m) * kIn;
      double* c = out_loop.data() + static_cast<std::size_t>(m) * kOut;
      for (int i = 0; i < kOut; ++i) {
        const double* row = w.data() + static_cast<std::size_t>(i) * kIn;
        double acc = bias[static_cast<std::size_t>(i)];
        for (int j = 0; j < kIn; ++j) acc += row[j] * a[j];
        c[i] = acc;
      }
    }
  };
  const auto batched = [&] {
    for (int m = 0; m < kBatch; ++m) {
      std::copy(bias.begin(), bias.end(),
                out_gemm.begin() + static_cast<std::ptrdiff_t>(m) * kOut);
    }
    nn::gemm_nn(kBatch, kOut, kIn, inputs.data(), wt.data(), out_gemm.data());
  };
  const auto best_of = [](double best, const auto& pass) {
    const auto start = std::chrono::steady_clock::now();
    for (int p = 0; p < kPassesPerRep; ++p) pass();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    return std::min(best, took.count());
  };

  per_sample();
  batched();
  double loop_s = std::numeric_limits<double>::infinity();
  double gemm_s = loop_s;
  for (int r = 0; r < kReps; ++r) {
    loop_s = best_of(loop_s, per_sample);
    gemm_s = best_of(gemm_s, batched);
  }
  EXPECT_EQ(out_loop, out_gemm);  // same bits, so the race is a fair one

  const std::string kernel = nn::active_kernel_name();
  const double floor = kernel == "avx2-strict" ? 2.0 : 1.0;
  EXPECT_GE(loop_s / gemm_s, floor) << kernel << " kernels";
}

TEST(Gemm, FastModeIsCloseAndRunToRunReproducible) {
  MathModeGuard guard;
  const int M = 16;
  const int N = 24;
  const int K = 32;
  const std::vector<double> a = filled(M * K, 0.3);
  const std::vector<double> b = filled(K * N, 0.7);
  std::vector<double> c_strict(static_cast<std::size_t>(M) * N, 0.0);
  nn::gemm_nn(M, N, K, a.data(), b.data(), c_strict.data());

  nn::set_math_mode(MathMode::kFast);
  std::vector<double> c_fast1(c_strict.size(), 0.0);
  std::vector<double> c_fast2(c_strict.size(), 0.0);
  nn::gemm_nn(M, N, K, a.data(), b.data(), c_fast1.data());
  nn::gemm_nn(M, N, K, a.data(), b.data(), c_fast2.data());
  EXPECT_EQ(c_fast1, c_fast2);  // reproducible for a fixed shape
  for (std::size_t i = 0; i < c_strict.size(); ++i) {
    EXPECT_NEAR(c_fast1[i], c_strict[i], 1e-9 * (1.0 + std::abs(c_strict[i])));
  }

  // The FMA gemm_tn blocks, masked tails included, stay close to strict.
  for (const Shape& s : tn_shapes()) {
    const std::vector<double> ta = filled(s.K * s.M, 0.4);
    const std::vector<double> tb = filled(s.K * s.N, 0.9);
    std::vector<double> tn_strict = filled(s.M * s.N, 0.2);
    std::vector<double> tn_fast = tn_strict;
    nn::set_math_mode(MathMode::kStrict);
    nn::gemm_tn(s.M, s.N, s.K, ta.data(), tb.data(), tn_strict.data());
    nn::set_math_mode(MathMode::kFast);
    nn::gemm_tn(s.M, s.N, s.K, ta.data(), tb.data(), tn_fast.data());
    for (std::size_t i = 0; i < tn_strict.size(); ++i) {
      ASSERT_NEAR(tn_fast[i], tn_strict[i],
                  1e-9 * (1.0 + std::abs(tn_strict[i])))
          << "gemm_tn " << s.M << "x" << s.N << "x" << s.K << " at " << i;
    }
  }
}

TEST(Gemm, TransposeRoundTrips) {
  const int rows = 5;
  const int cols = 7;
  const std::vector<double> src = filled(rows * cols, 0.9);
  std::vector<double> t(src.size());
  std::vector<double> back(src.size());
  nn::transpose(rows, cols, src.data(), t.data());
  EXPECT_EQ(src[1 * cols + 3], t[3 * rows + 1]);
  nn::transpose(cols, rows, t.data(), back.data());
  EXPECT_EQ(src, back);
}

TEST(MathMode, ParseAcceptsStrictAndFast) {
  EXPECT_EQ(nn::parse_math_mode("strict"), MathMode::kStrict);
  EXPECT_EQ(nn::parse_math_mode("fast"), MathMode::kFast);
  EXPECT_THROW(nn::parse_math_mode("turbo"), std::invalid_argument);
  EXPECT_THROW(nn::parse_math_mode(""), std::invalid_argument);
  EXPECT_THROW(nn::parse_math_mode("STRICT"), std::invalid_argument);
}

TEST(MathMode, NamesRoundTrip) {
  EXPECT_STREQ(nn::math_mode_name(MathMode::kStrict), "strict");
  EXPECT_STREQ(nn::math_mode_name(MathMode::kFast), "fast");
}

TEST(MathMode, SetAndQuery) {
  MathModeGuard guard;
  nn::set_math_mode(MathMode::kFast);
  EXPECT_EQ(nn::math_mode(), MathMode::kFast);
  nn::set_math_mode(MathMode::kStrict);
  EXPECT_EQ(nn::math_mode(), MathMode::kStrict);
}

TEST(MathMode, KernelNameMatchesCapabilities) {
  MathModeGuard guard;
  nn::set_math_mode(MathMode::kStrict);
  const std::string strict_name = nn::active_kernel_name();
  nn::set_math_mode(MathMode::kFast);
  const std::string fast_name = nn::active_kernel_name();
  if (nn::cpu_has_avx2_fma()) {
    EXPECT_TRUE(nn::detail::avx2_kernels_compiled());
    EXPECT_EQ(strict_name, "avx2-strict");
    EXPECT_EQ(fast_name, "avx2-fma");
  } else {
    EXPECT_EQ(strict_name, "scalar-tiled");
    EXPECT_EQ(fast_name, "scalar-tiled");
  }
}

}  // namespace
