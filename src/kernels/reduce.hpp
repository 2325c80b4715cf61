// Row reductions outside the GEMMs: max |x|, row softmax and row layer norm.
//
// Each has an AVX2 form and a `_scalar` form that performs the same
// operations in the same order, fusing with std::fma exactly where the
// vector code fuses, so the two agree bit for bit. The scalar form is the
// test oracle and the build's path without AVX2. tvbf::max_abs,
// tvbf::softmax_last and tvbf::layer_norm (and through them nn) call these,
// as does the Tiny-VBF inference engine, so every caller shares one
// arithmetic.
//
// This TU is compiled with -ffp-contract=off: a multiply and an add are
// fused only where the code says so.
#pragma once

#include <cstdint>

namespace tvbf::kernels {

/// max |x_i| over x[0, n): NaN is skipped, as `m = std::max(m, |x_i|)`
/// from m = 0 skips it; 0 when n == 0 or every value is NaN. Exact.
float max_abs(const float* x, std::int64_t n);
float max_abs_scalar(const float* x, std::int64_t n);

/// exp(x) for x <= 0 (and NaN) in float: Cody-Waite reduction by ln 2 and a
/// degree-7 polynomial, all fused. Within 1.5e-7 of exp relative (8.4e-8
/// measured over every eighth float in [-104, 0]), plus one denormal step
/// (2^-149) where exp(x) < FLT_MIN; 0 below -104 and at -inf; NaN for NaN.
/// The exp of softmax_rows.
float exp_nonpositive(float x);

/// Softmax over each of `rows` rows of width w >= 1: y = e / sum(e) with
/// e = exp_nonpositive(x - max(row)), the sum taken in double over eight
/// lanes (element j into lane j % 8, lanes combined in a fixed tree). A row
/// holding NaN or +inf, or only -inf, comes out all NaN. y may alias x.
void softmax_rows(const float* x, float* y, std::int64_t rows,
                  std::int64_t w);
void softmax_rows_scalar(const float* x, float* y, std::int64_t rows,
                         std::int64_t w);

/// Softmax down each column of x (rows >= 1 by cols, row-major), in place,
/// eight columns per vector: column i comes out as row i of softmax_rows
/// over the transpose, bit for bit, including the all-NaN rule.
void softmax_columns(float* x, std::int64_t rows, std::int64_t cols);
void softmax_columns_scalar(float* x, std::int64_t rows, std::int64_t cols);

/// Layer norm over each of `rows` rows of width w >= 1:
/// y = gamma * xhat + beta, xhat = (x - mean) * inv_std,
/// inv_std = 1 / sqrt(var + epsilon), mean and variance accumulated in
/// double in element order. xhat (rows * w) and inv_std (rows) receive the
/// normalized rows and each row's inv_std unless null. y may alias x.
void layer_norm_rows(const float* x, float* y, std::int64_t rows,
                     std::int64_t w, const float* gamma, const float* beta,
                     float epsilon, float* xhat, float* inv_std);
void layer_norm_rows_scalar(const float* x, float* y, std::int64_t rows,
                            std::int64_t w, const float* gamma,
                            const float* beta, float epsilon, float* xhat,
                            float* inv_std);

}  // namespace tvbf::kernels
