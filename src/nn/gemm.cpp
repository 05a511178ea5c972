#include "nn/gemm.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace nn {

namespace {

MathMode resolve_initial_mode() {
  const char* env = std::getenv("GENET_MATH");
  if (env == nullptr || *env == '\0') return MathMode::kStrict;
  try {
    return parse_math_mode(env);
  } catch (const std::invalid_argument&) {
    // A typo in an environment variable must not silently change numerics;
    // fail loudly instead of guessing.
    throw std::invalid_argument(std::string("GENET_MATH: unknown mode '") +
                                env + "' (want strict or fast)");
  }
}

std::atomic<int>& mode_storage() {
  // -1 = unresolved; lazily resolved from GENET_MATH on first read so library
  // users who never touch the knob pay one getenv, ever.
  static std::atomic<int> mode{-1};
  return mode;
}

bool runtime_cpu_supports_avx2_fma() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

MathMode math_mode() {
  std::atomic<int>& mode = mode_storage();
  int current = mode.load(std::memory_order_relaxed);
  if (current < 0) {
    const MathMode resolved = resolve_initial_mode();
    int expected = -1;
    // Another thread may resolve concurrently; both compute the same value.
    mode.compare_exchange_strong(expected, static_cast<int>(resolved),
                                 std::memory_order_relaxed);
    current = mode.load(std::memory_order_relaxed);
  }
  return static_cast<MathMode>(current);
}

void set_math_mode(MathMode mode) {
  mode_storage().store(static_cast<int>(mode), std::memory_order_relaxed);
}

MathMode parse_math_mode(const std::string& name) {
  if (name == "strict") return MathMode::kStrict;
  if (name == "fast") return MathMode::kFast;
  throw std::invalid_argument("parse_math_mode: unknown mode '" + name +
                              "' (want strict or fast)");
}

const char* math_mode_name(MathMode mode) {
  return mode == MathMode::kFast ? "fast" : "strict";
}

bool cpu_has_avx2_fma() {
  static const bool supported =
      detail::avx2_kernels_compiled() && runtime_cpu_supports_avx2_fma();
  return supported;
}

const char* active_kernel_name() {
  if (!cpu_has_avx2_fma()) return "scalar-tiled";
  return math_mode() == MathMode::kFast ? "avx2-fma" : "avx2-strict";
}

namespace detail {

// Tile width of the n (output-column) dimension: 8 doubles is one cache
// line, four two-lane vectors per row of the register block below.
constexpr int kNTile = 8;

namespace {

/// Two doubles as one GCC/Clang vector-extension value. Its `*` and `+` are
/// elementwise IEEE operations (never contracted: -ffp-contract=off), so
/// each lane is an independent strict accumulation chain; targets without
/// SIMD lower it to scalar code. Spelling the tile as vectors keeps the
/// compiler from vectorizing across k instead, which spills the tile.
typedef double Lanes2 __attribute__((vector_size(16)));
constexpr int kTileVecs = kNTile / 2;

inline Lanes2 load2(const double* p) {
  Lanes2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// R rows of C += A·B from row m0, where row m's k-th factor is
/// A[m * a_row_stride + k * a_k_stride] (gemm_nn: K, 1; gemm_tn: 1, lda).
/// Each 8-column tile holds R x 8 accumulators, so a B row segment is
/// loaded once per k for all R rows. Every element still receives its
/// addends in ascending-k order, one multiply and one add each, so this is
/// bit-identical to the naive per-element dot product.
template <int R>
void scalar_rows(int m0, int N, int K, const double* A, long a_row_stride,
                 long a_k_stride, const double* B, double* C) {
  const double* a = A + m0 * a_row_stride;
  double* c = C + static_cast<std::size_t>(m0) * N;
  int n0 = 0;
  for (; n0 + kNTile <= N; n0 += kNTile) {
    Lanes2 acc[R][kTileVecs];
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < kTileVecs; ++v) {
        acc[r][v] = load2(c + static_cast<std::size_t>(r) * N + n0 + 2 * v);
      }
    }
    const double* ak = a;
    for (int k = 0; k < K; ++k, ak += a_k_stride) {
      const double* b = B + static_cast<std::size_t>(k) * N + n0;
      Lanes2 bv[kTileVecs];
      for (int v = 0; v < kTileVecs; ++v) bv[v] = load2(b + 2 * v);
      for (int r = 0; r < R; ++r) {
        const double f = ak[r * a_row_stride];
        const Lanes2 fv = {f, f};
        for (int v = 0; v < kTileVecs; ++v) acc[r][v] += fv * bv[v];
      }
    }
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < kTileVecs; ++v) {
        std::memcpy(c + static_cast<std::size_t>(r) * N + n0 + 2 * v,
                    &acc[r][v], sizeof(Lanes2));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    double* cr = c + static_cast<std::size_t>(r) * N;
    for (int n = n0; n < N; ++n) {
      double acc = cr[n];
      for (int k = 0; k < K; ++k) {
        acc += a[r * a_row_stride + k * a_k_stride] *
               B[static_cast<std::size_t>(k) * N + n];
      }
      cr[n] = acc;
    }
  }
}

/// Rows in pairs, then a last single row.
void scalar_gemm(int M, int N, int K, const double* A, long a_row_stride,
                 long a_k_stride, const double* B, double* C) {
  int m = 0;
  for (; m + 2 <= M; m += 2) {
    scalar_rows<2>(m, N, K, A, a_row_stride, a_k_stride, B, C);
  }
  if (m < M) scalar_rows<1>(m, N, K, A, a_row_stride, a_k_stride, B, C);
}

}  // namespace

void gemm_nn_scalar(int M, int N, int K, const double* A, const double* B,
                    double* C) {
  scalar_gemm(M, N, K, A, /*a_row_stride=*/K, /*a_k_stride=*/1, B, C);
}

void gemm_tn_scalar(int M, int N, int K, const double* A, int lda,
                    const double* B, double* C) {
  scalar_gemm(M, N, K, A, /*a_row_stride=*/1, /*a_k_stride=*/lda, B, C);
}

}  // namespace detail

void gemm_nn(int M, int N, int K, const double* A, const double* B,
             double* C) {
  if (cpu_has_avx2_fma()) {
    if (math_mode() == MathMode::kFast) {
      detail::gemm_nn_avx2(M, N, K, A, B, C);
    } else {
      // Bit-identical to the scalar kernel (multiply-then-add, ascending k).
      detail::gemm_nn_avx2_strict(M, N, K, A, B, C);
    }
    return;
  }
  detail::gemm_nn_scalar(M, N, K, A, B, C);
}

void gemm_tn(int M, int N, int K, const double* A, int lda, const double* B,
             double* C) {
  if (cpu_has_avx2_fma()) {
    if (math_mode() == MathMode::kFast) {
      detail::gemm_tn_avx2(M, N, K, A, lda, B, C);
    } else {
      detail::gemm_tn_avx2_strict(M, N, K, A, lda, B, C);
    }
    return;
  }
  detail::gemm_tn_scalar(M, N, K, A, lda, B, C);
}

void transpose(int rows, int cols, const double* src, double* dst) {
  for (int r = 0; r < rows; ++r) {
    const double* s = src + static_cast<std::size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) {
      dst[static_cast<std::size_t>(c) * rows + r] = s[c];
    }
  }
}

}  // namespace nn
