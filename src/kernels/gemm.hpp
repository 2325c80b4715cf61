// Register-blocked float32 GEMM micro-kernels.
//
// This is the hot-path layer the tensor/nn/quant matmuls are built on. All
// matrices are row-major and, except for the views of gemm_indirect_rows
// and attention_block, fully packed (leading dimension == column count).
// The blocked kernels tile C into MR x NR register accumulator panels swept
// over Kc-sized slices of the inner dimension, with no data-dependent
// branches in the inner loops, so the compiler can keep the accumulators in
// vector registers; an epilogue can round to a fixed-point format, add a
// bias and apply ReLU on the last K block. The `_reference` entry points
// preserve the original naive loops for equivalence testing and
// benchmarking.
//
// Serial `_rows`/`_panel` variants compute a sub-range of output rows so
// callers can parallelize across the process-wide pool; the plain entry
// points do that parallelization themselves.
#pragma once

#include <cstdint>
#include <optional>

#include "kernels/quantize.hpp"

namespace tvbf::kernels {

/// What a GEMM does to each output after its sum: c += bias[j] when bias
/// is not null, then c = c > 0 ? c : 0 when relu, bit for bit those
/// separate passes. With a round format, c is rounded to it before the
/// bias and again after it (quantize_inplace's bits).
struct Epilogue {
  const float* bias = nullptr;
  bool relu = false;
  std::optional<FixedFormat> round;
};

// ---- C = A.B ---------------------------------------------------------------

/// Serial blocked kernel for output rows [row_begin, row_end):
/// C = A.B, then the epilogue (accumulate == false), or C += A.B.
/// a is (m, k), b is (k, n), c is (m, n).
void gemm_rows(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, std::int64_t row_begin,
               std::int64_t row_end, bool accumulate = false,
               const Epilogue& epilogue = {});

/// C = A.B, then the epilogue, threaded over row blocks via the common pool.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, const Epilogue& epilogue = {});

/// gemm_rows with A read through row pointers and column offsets: element
/// (i, p) of A is a_rows[i][a_cols[p]]. The same micro-kernels sum the
/// same products in the same K-block order, so the result is gemm_rows'
/// on the gathered A, bit for bit. c is (m, n), overwritten; serial.
void gemm_indirect_rows(const float* const* a_rows,
                        const std::int64_t* a_cols, const float* b, float* c,
                        std::int64_t k, std::int64_t n,
                        std::int64_t row_begin, std::int64_t row_end,
                        const Epilogue& epilogue = {});

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

// ---- One attention head ----------------------------------------------------

/// Scratch floats attention_block needs for np patches of head width dk.
inline std::int64_t attention_block_floats(std::int64_t np, std::int64_t dk) {
  return np * (np + dk);
}

/// One head over one depth row's np patches, reading the (np, dk) bands q,
/// k and v (rows ld apart) in place: bit for bit gemm(Q, K^T), times
/// scale, softmax_rows, then gemm(P, V) into out (rows ldo apart). With
/// formats, the scores, the scaled scores and P.V are each rounded at
/// their op width and the softmax at its own (quantize_inplace's bits).
/// The scores stay in `work`, transposed (keys x queries, softmaxed by
/// softmax_columns). A query whose scores hold NaN or +inf, or only -inf,
/// comes out all NaN, as through softmax_rows. Serial.
void attention_block(const float* q, const float* k, const float* v,
                     std::int64_t ld, float* out, std::int64_t ldo,
                     std::int64_t np, std::int64_t dk, float scale,
                     float* work,
                     const std::optional<DatapathFormats>& formats = {});
/// attention_block through the scalar edge micro-kernel and the scalar
/// softmax; the test oracle.
void attention_block_scalar(const float* q, const float* k, const float* v,
                            std::int64_t ld, float* out, std::int64_t ldo,
                            std::int64_t np, std::int64_t dk, float scale,
                            float* work,
                            const std::optional<DatapathFormats>& formats);

}  // namespace tvbf::kernels
