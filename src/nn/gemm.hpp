#pragma once

#include <string>

namespace nn {

/// Floating-point contract of the batched math kernels (DESIGN.md, "Batched
/// math layer").
///
/// - `kStrict` (the default): every output element is accumulated in exactly
///   the order the original per-sample scalar loops used (reduction index
///   ascending, no fused multiply-add), so batched results are bit-identical
///   to per-sample ones regardless of batch size, tiling, or thread count.
///   All determinism and golden-checkpoint guarantees assume this mode.
///   Strict mode may still dispatch to vector kernels that multiply then add
///   across independent output columns — elementwise IEEE operations in the
///   same order produce the same bits, so this is an implementation detail,
///   not a numerics change.
/// - `kFast`: kernels may contract multiply+add into FMA and use wider
///   vector arithmetic. Results are reproducible for a fixed batch shape but
///   are NOT bit-identical to strict mode (they differ by rounding), and the
///   lockstep rollout batch shape depends on the thread count, so fast-mode
///   training is validated statistically rather than bit-for-bit.
enum class MathMode { kStrict, kFast };

/// Active mode. Resolution order: the last `set_math_mode` call, else the
/// `GENET_MATH` environment variable ("strict" / "fast"), else strict. The
/// environment variable is read once, on first use.
MathMode math_mode();
void set_math_mode(MathMode mode);

/// Parses "strict" / "fast"; throws std::invalid_argument otherwise.
MathMode parse_math_mode(const std::string& name);
const char* math_mode_name(MathMode mode);

/// True when this binary carries the AVX2+FMA kernels (compiler supported
/// -mavx2 -mfma at build time) AND the running CPU reports both features.
/// Both modes dispatch through this at runtime: fast selects the FMA
/// kernels, strict the bit-identical multiply-then-add vector kernels.
bool cpu_has_avx2_fma();

/// Human-readable name of the kernel the current mode would dispatch to
/// ("scalar-tiled", "avx2-strict" or "avx2-fma"); the batched-speedup test
/// in gemm_test.cpp sets its floor from it.
const char* active_kernel_name();

// ---------------------------------------------------------------------------
// Batched GEMM primitives. All matrices are dense row-major with no padding
// (leading dimension == column count), except gemm_tn's A, which takes its
// row stride. All routines ACCUMULATE into C; the caller initializes C (with
// zeros, or with a broadcast bias row).
// ---------------------------------------------------------------------------

/// C (M x N) += A (M x K) · B (K x N).
///
/// Strict contract: element C[m][n] receives its K addends in ascending-k
/// order, matching `acc = C0; for k: acc += A[m][k] * B[k][n]`. Each row of
/// C depends only on the matching row of A, so results are invariant to how
/// a batch is split across calls.
void gemm_nn(int M, int N, int K, const double* A, const double* B, double* C);

/// C (M x N) += Aᵀ · B where A is K x M with row stride `lda` (>= M) and B
/// is K x N, i.e. C[m][n] += sum_k A[k * lda + m] * B[k][n].
///
/// Strict contract: the k (sample) dimension is accumulated in ascending
/// order into C, reproducing bit-for-bit the per-sample rank-1 updates
/// `for k: C[m][n] += A[k][m] * B[k][n]` of the scalar backward pass. Each
/// row of C depends only on the matching column of A, so a caller may split
/// C's rows across calls (A offset by the first row, `lda` unchanged) without
/// changing a bit, in either math mode.
void gemm_tn(int M, int N, int K, const double* A, int lda, const double* B,
             double* C);

/// dst (cols x rows) = srcᵀ for src (rows x cols). Used to pre-transpose
/// weight matrices once per batched forward so the inner kernels stream
/// contiguous rows.
void transpose(int rows, int cols, const double* src, double* dst);

namespace detail {
// Reference scalar kernels (always strict-ordered); exposed for tests and as
// the fallback the runtime dispatcher uses when AVX2+FMA is unavailable.
void gemm_nn_scalar(int M, int N, int K, const double* A, const double* B,
                    double* C);
void gemm_tn_scalar(int M, int N, int K, const double* A, int lda,
                    const double* B, double* C);
// AVX2 kernels, compiled only when the toolchain supports the flags (they
// degrade to the scalar kernels otherwise — see gemm_avx2.cpp). Never call
// directly without a cpu_has_avx2_fma() check. The _strict variants use
// multiply-then-add and are bit-identical to the scalar kernels; the plain
// variants use FMA (fast mode only).
void gemm_nn_avx2(int M, int N, int K, const double* A, const double* B,
                  double* C);
void gemm_tn_avx2(int M, int N, int K, const double* A, int lda,
                  const double* B, double* C);
void gemm_nn_avx2_strict(int M, int N, int K, const double* A, const double* B,
                         double* C);
void gemm_tn_avx2_strict(int M, int N, int K, const double* A, int lda,
                         const double* B, double* C);
bool avx2_kernels_compiled();
}  // namespace detail

}  // namespace nn
