// AVX2 GEMM kernels. This translation unit is the only one compiled with
// -mavx2 -mfma (see src/nn/CMakeLists.txt), so AVX2 instructions can never
// leak into code that runs unconditionally; gemm.cpp dispatches here only
// after a runtime __builtin_cpu_supports check. When the toolchain cannot
// target AVX2, GENET_AVX2_BUILD stays undefined and the entry points degrade
// to the scalar kernels (and avx2_kernels_compiled() reports false, so they
// are never selected).
//
// Two kernel families share one loop structure (k-outer, n-tiled, each
// output element accumulated in ascending-k order; gemm_tn also blocks
// four output rows per tile, see gemm_tn_blocked):
//
//   strict — 256-bit multiply then add, two rounding steps per term, exactly
//            the operation the scalar kernels perform. Vector lanes are
//            independent accumulation chains, so results are bit-identical
//            to the scalar kernels (and to the pre-batching per-sample
//            code); strict mode may therefore use these freely.
//   fast   — 256-bit FMA, one rounding step per term. Reproducible for a
//            fixed batch shape but not bit-identical to strict.
//
// -ffp-contract=off is set globally (top-level CMakeLists.txt), so the
// scalar tails here do not silently contract to FMA even though -mfma is on;
// the fast tail opts into FMA explicitly via __builtin_fma.

#include "nn/gemm.hpp"

#if defined(GENET_AVX2_BUILD)
#include <immintrin.h>
#endif

namespace nn {
namespace detail {

#if defined(GENET_AVX2_BUILD)

bool avx2_kernels_compiled() { return true; }

namespace {

// 16 columns = 4 ymm accumulators: enough independent chains to hide the
// ~4-cycle FMA/add latency while leaving registers for the broadcast and
// the B-row loads.
constexpr int kVecTile = 16;

/// One multiply-accumulate term. UseFma selects fused (fast mode, one
/// rounding) or separate multiply-then-add (strict mode, bit-identical to
/// the scalar kernels).
template <bool UseFma>
inline __m256d mac(__m256d f, __m256d b, __m256d acc) {
  if constexpr (UseFma) return _mm256_fmadd_pd(f, b, acc);
  return _mm256_add_pd(acc, _mm256_mul_pd(f, b));
}

template <bool UseFma>
inline void accumulate_row_block(int N, int K, int n0, const double* f_src,
                                 long f_stride, const double* B, double* c) {
  __m256d acc0 = _mm256_loadu_pd(c + n0);
  __m256d acc1 = _mm256_loadu_pd(c + n0 + 4);
  __m256d acc2 = _mm256_loadu_pd(c + n0 + 8);
  __m256d acc3 = _mm256_loadu_pd(c + n0 + 12);
  for (int k = 0; k < K; ++k) {
    const __m256d f = _mm256_set1_pd(f_src[static_cast<long>(k) * f_stride]);
    const double* b = B + static_cast<std::size_t>(k) * N + n0;
    acc0 = mac<UseFma>(f, _mm256_loadu_pd(b), acc0);
    acc1 = mac<UseFma>(f, _mm256_loadu_pd(b + 4), acc1);
    acc2 = mac<UseFma>(f, _mm256_loadu_pd(b + 8), acc2);
    acc3 = mac<UseFma>(f, _mm256_loadu_pd(b + 12), acc3);
  }
  _mm256_storeu_pd(c + n0, acc0);
  _mm256_storeu_pd(c + n0 + 4, acc1);
  _mm256_storeu_pd(c + n0 + 8, acc2);
  _mm256_storeu_pd(c + n0 + 12, acc3);
}

template <bool UseFma>
inline void accumulate_row_quad(int N, int K, int n0, const double* f_src,
                                long f_stride, const double* B, double* c) {
  __m256d acc = _mm256_loadu_pd(c + n0);
  for (int k = 0; k < K; ++k) {
    const __m256d f = _mm256_set1_pd(f_src[static_cast<long>(k) * f_stride]);
    acc = mac<UseFma>(
        f, _mm256_loadu_pd(B + static_cast<std::size_t>(k) * N + n0), acc);
  }
  _mm256_storeu_pd(c + n0, acc);
}

template <bool UseFma>
inline void accumulate_row_tail(int N, int K, int n0, const double* f_src,
                                long f_stride, const double* B, double* c) {
  for (; n0 < N; ++n0) {
    double acc = c[n0];
    for (int k = 0; k < K; ++k) {
      const double f = f_src[static_cast<long>(k) * f_stride];
      const double b = B[static_cast<std::size_t>(k) * N + n0];
      if constexpr (UseFma) {
        // Matches the FMA rounding of the vector lanes, keeping one row's
        // result independent of which lane width processed it.
        acc = __builtin_fma(f, b, acc);
      } else {
        acc += f * b;  // two roundings, same as the vector lanes above
      }
    }
    c[n0] = acc;
  }
}

/// Lane mask selecting the first `lanes` (0..4) doubles of a vector.
inline __m256i lane_mask(int lanes) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

/// gemm_tn register block: C rows m0..m0+R-1, columns n0..n0+7, in 2*R
/// accumulators (8 for R = 4), so each B row segment is loaded once per k
/// for all R rows. k ascends and each term is one `mac`, so every element
/// gets the same operations in the same order as the row kernels. A column
/// tail (`Masked`) loads and stores only the lanes in `lo`/`hi`; masked-off
/// lanes are never read or written.
template <bool UseFma, int R, bool Masked>
inline void tn_block(int lda, int N, int K, int m0, int n0, __m256i lo,
                     __m256i hi, const double* A, const double* B,
                     double* C) {
  const auto load = [&](const double* p, __m256i mask) {
    if constexpr (Masked) return _mm256_maskload_pd(p, mask);
    else return _mm256_loadu_pd(p);
  };
  __m256d acc[R][2];
  for (int r = 0; r < R; ++r) {
    const double* c = C + static_cast<std::size_t>(m0 + r) * N + n0;
    acc[r][0] = load(c, lo);
    acc[r][1] = load(c + 4, hi);
  }
  for (int k = 0; k < K; ++k) {
    const double* b = B + static_cast<std::size_t>(k) * N + n0;
    const __m256d b0 = load(b, lo);
    const __m256d b1 = load(b + 4, hi);
    const double* a = A + static_cast<std::size_t>(k) * lda + m0;
    for (int r = 0; r < R; ++r) {
      const __m256d f = _mm256_set1_pd(a[r]);
      acc[r][0] = mac<UseFma>(f, b0, acc[r][0]);
      acc[r][1] = mac<UseFma>(f, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < R; ++r) {
    double* c = C + static_cast<std::size_t>(m0 + r) * N + n0;
    if constexpr (Masked) {
      _mm256_maskstore_pd(c, lo, acc[r][0]);
      _mm256_maskstore_pd(c + 4, hi, acc[r][1]);
    } else {
      _mm256_storeu_pd(c, acc[r][0]);
      _mm256_storeu_pd(c + 4, acc[r][1]);
    }
  }
}

/// R output rows of gemm_tn from m0: full 8-column blocks, then one masked
/// block for the N % 8 tail columns.
template <bool UseFma, int R>
inline void tn_rows(int lda, int N, int K, int m0, const double* A,
                    const double* B, double* C) {
  const __m256i all = _mm256_set1_epi64x(-1);
  int n0 = 0;
  for (; n0 + 8 <= N; n0 += 8) {
    tn_block<UseFma, R, false>(lda, N, K, m0, n0, all, all, A, B, C);
  }
  if (n0 < N) {
    const int tail = N - n0;
    tn_block<UseFma, R, true>(lda, N, K, m0, n0, lane_mask(tail < 4 ? tail : 4),
                              lane_mask(tail > 4 ? tail - 4 : 0), A, B, C);
  }
}

template <bool UseFma>
inline void gemm_rows(int M, int N, int K, const double* A, long a_row_stride,
                      long a_k_stride, const double* B, double* C) {
  for (int m = 0; m < M; ++m) {
    const double* f_src = A + static_cast<long>(m) * a_row_stride;
    double* c = C + static_cast<std::size_t>(m) * N;
    int n0 = 0;
    for (; n0 + kVecTile <= N; n0 += kVecTile) {
      accumulate_row_block<UseFma>(N, K, n0, f_src, a_k_stride, B, c);
    }
    for (; n0 + 4 <= N; n0 += 4) {
      accumulate_row_quad<UseFma>(N, K, n0, f_src, a_k_stride, B, c);
    }
    accumulate_row_tail<UseFma>(N, K, n0, f_src, a_k_stride, B, c);
  }
}

/// C += Aᵀ·B in 4-row register blocks; an M % 4 remainder of 2 or 3 rows is
/// one narrower block. A single row (M = 1, the critic head, or a remainder
/// of 1) runs the row kernel: with only 2 accumulators per 8 columns a
/// 1-row block is add-latency bound, while the row kernel keeps 4 chains.
template <bool UseFma>
void gemm_tn_blocked(int M, int N, int K, const double* A, int lda,
                     const double* B, double* C) {
  int m0 = 0;
  for (; m0 + 4 <= M; m0 += 4) tn_rows<UseFma, 4>(lda, N, K, m0, A, B, C);
  switch (M - m0) {
    case 3:
      tn_rows<UseFma, 3>(lda, N, K, m0, A, B, C);
      break;
    case 2:
      tn_rows<UseFma, 2>(lda, N, K, m0, A, B, C);
      break;
    case 1:
      // A[k][m0] walks column m0 of the K x M matrix: k stride lda.
      gemm_rows<UseFma>(1, N, K, A + m0, /*a_row_stride=*/1,
                        /*a_k_stride=*/lda, B,
                        C + static_cast<std::size_t>(m0) * N);
      break;
  }
}

}  // namespace

void gemm_nn_avx2(int M, int N, int K, const double* A, const double* B,
                  double* C) {
  // A[m][k] walks row m contiguously: row stride K, k stride 1.
  gemm_rows<true>(M, N, K, A, /*a_row_stride=*/K, /*a_k_stride=*/1, B, C);
}

void gemm_tn_avx2(int M, int N, int K, const double* A, int lda,
                  const double* B, double* C) {
  gemm_tn_blocked<true>(M, N, K, A, lda, B, C);
}

void gemm_nn_avx2_strict(int M, int N, int K, const double* A, const double* B,
                         double* C) {
  gemm_rows<false>(M, N, K, A, /*a_row_stride=*/K, /*a_k_stride=*/1, B, C);
}

void gemm_tn_avx2_strict(int M, int N, int K, const double* A, int lda,
                         const double* B, double* C) {
  gemm_tn_blocked<false>(M, N, K, A, lda, B, C);
}

#else  // !GENET_AVX2_BUILD

bool avx2_kernels_compiled() { return false; }

void gemm_nn_avx2(int M, int N, int K, const double* A, const double* B,
                  double* C) {
  gemm_nn_scalar(M, N, K, A, B, C);
}

void gemm_tn_avx2(int M, int N, int K, const double* A, int lda,
                  const double* B, double* C) {
  gemm_tn_scalar(M, N, K, A, lda, B, C);
}

void gemm_nn_avx2_strict(int M, int N, int K, const double* A,
                         const double* B, double* C) {
  gemm_nn_scalar(M, N, K, A, B, C);
}

void gemm_tn_avx2_strict(int M, int N, int K, const double* A, int lda,
                         const double* B, double* C) {
  gemm_tn_scalar(M, N, K, A, lda, B, C);
}

#endif  // GENET_AVX2_BUILD

}  // namespace detail
}  // namespace nn
