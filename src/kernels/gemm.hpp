// Register-blocked float32 GEMM micro-kernels.
//
// This is the hot-path layer the tensor/nn/quant matmuls are built on. All
// matrices are row-major and, except for gemm_strided's views, fully packed
// (leading dimension == column count). The blocked kernels tile C into MR x NR register accumulator
// panels swept over Kc-sized slices of the inner dimension, with no
// data-dependent branches in the inner loops, so the compiler can keep the
// accumulators in vector registers. The `_reference` entry points preserve
// the original naive loops for equivalence testing and benchmarking.
//
// Serial `_rows`/`_panel` variants compute a sub-range of output rows so
// callers can parallelize across the process-wide pool; the plain entry
// points do that parallelization themselves.
#pragma once

#include <cstdint>

namespace tvbf::kernels {

// ---- C = A.B ---------------------------------------------------------------

/// Serial blocked kernel for output rows [row_begin, row_end):
/// C = A.B (accumulate == false zeroes the rows first) or C += A.B.
/// a is (m, k), b is (k, n), c is (m, n).
void gemm_rows(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, std::int64_t row_begin,
               std::int64_t row_end, bool accumulate = false);

/// C = A.B, threaded over row blocks via the common pool.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n);

/// Serial C = A.B over strided views, with gemm_rows' arithmetic: a is
/// (m, k) with rows lda apart, b is (k, n) with element (p, j) at
/// b[p * b_rs + j * b_cs], and c is (m, n) with rows ldc apart, overwritten.
/// B is packed into the same panels whatever its strides, so a column band
/// of a wider matrix, or a transposed one (b_rs = 1), gives the bits
/// gemm_rows gives on a packed copy.
void gemm_strided(const float* a, std::int64_t lda, const float* b,
                  std::int64_t b_rs, std::int64_t b_cs, float* c,
                  std::int64_t ldc, std::int64_t m, std::int64_t k,
                  std::int64_t n);

/// Original naive ikj kernel (seed implementation), kept as the reference
/// for equivalence tests and bench baselines. C rows are overwritten.
void gemm_reference_rows(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         std::int64_t row_begin, std::int64_t row_end);

// ---- C = A.B^T -------------------------------------------------------------

/// Serial kernel for output rows [row_begin, row_end) of C (+)= A.B^T where
/// a is (m, k) and b is (n, k): c(i, j) = dot(a row i, b row j). Lets
/// attention score kernels consume K directly without materializing K^T.
void gemm_nt_rows(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n, std::int64_t row_begin,
                  std::int64_t row_end, bool accumulate = false);

// ---- C += A^T.B ------------------------------------------------------------

/// Serial kernel for output rows [p_begin, p_end) of C += A^T.B where
/// a is (m, k) and b is (m, n), so c is (k, n). This is the dB shape of the
/// matmul backward pass: dB += A^T.dC.
void gemm_tn_panel(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n, std::int64_t p_begin,
                   std::int64_t p_end);

/// C += A^T.B, threaded over the k rows of C via the common pool.
void gemm_tn_accumulate(const float* a, const float* b, float* c,
                        std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace tvbf::kernels
