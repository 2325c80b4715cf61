// Free-function kernels over Tensor.
//
// These are the raw numeric kernels; the autodiff layer in src/nn builds its
// differentiable ops on top of them. Matmul is blocked and threaded via the
// common thread pool — it dominates both training and inference time.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace tvbf {

// ---- elementwise -----------------------------------------------------------

/// c = a + b (same shape).
Tensor add(const Tensor& a, const Tensor& b);
/// c = a - b (same shape).
Tensor sub(const Tensor& a, const Tensor& b);
/// c = a * b elementwise (same shape).
Tensor mul(const Tensor& a, const Tensor& b);
/// c = a * s.
Tensor scale(const Tensor& a, float s);
/// In-place a += b (same shape).
void add_inplace(Tensor& a, const Tensor& b);
/// In-place a += s * b (axpy, same shape).
void axpy_inplace(Tensor& a, float s, const Tensor& b);

/// Adds a rank-1 bias of length `a.shape().back()` to each trailing row.
Tensor add_bias(const Tensor& a, const Tensor& bias);

/// max(a, 0) elementwise.
Tensor relu(const Tensor& a);
/// tanh elementwise.
Tensor tanh_t(const Tensor& a);

// ---- reductions ------------------------------------------------------------

float sum(const Tensor& a);
float mean(const Tensor& a);
float min_value(const Tensor& a);
float max_value(const Tensor& a);
/// Maximum |a_i|; 0 for empty tensors.
float max_abs(const Tensor& a);

// ---- linear algebra --------------------------------------------------------

/// Row-major matrix product: a (m,k) x b (k,n) -> (m,n). Threaded.
Tensor matmul(const Tensor& a, const Tensor& b);

/// Batched matmul: a (B,m,k) x b (B,k,n) -> (B,m,n). If b has rank 2 it is
/// broadcast across the batch.
Tensor batched_matmul(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor transpose(const Tensor& a);

/// Swaps the last two axes of a rank-3 tensor.
Tensor transpose_last2(const Tensor& a);

// ---- normalization ---------------------------------------------------------

/// Softmax over the trailing axis (kernels::softmax_rows): each row is
/// shifted by its max, exponentiated by kernels::exp_nonpositive and scaled
/// by 1 / (row sum, accumulated in double).
Tensor softmax_last(const Tensor& x);

/// Layer normalization over the trailing axis (kernels::layer_norm_rows):
/// y = gamma * xhat + beta with xhat = (x - mean) * inv_std and
/// inv_std = 1 / sqrt(var + epsilon), mean and variance accumulated in
/// double. gamma and beta are rank 1 of the trailing length. When given,
/// `xhat` and `inv_std` receive the normalized rows and each row's inv_std
/// (the backward pass reuses both).
Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float epsilon, Tensor* xhat = nullptr,
                  std::vector<float>* inv_std = nullptr);

// ---- shaping ---------------------------------------------------------------

/// Extracts rows [begin, end) along axis 0.
Tensor slice0(const Tensor& a, std::int64_t begin, std::int64_t end);

/// Concatenates along axis 0 (shapes must otherwise match).
Tensor concat0(const Tensor& a, const Tensor& b);

/// N-ary concat0: stacks all parts along axis 0 with a single allocation
/// (the batch-of-frames entry points stack whole frames this way).
Tensor concat0_all(const std::vector<const Tensor*>& parts);

// ---- norms & comparisons ---------------------------------------------------

/// Frobenius / L2 norm.
float l2_norm(const Tensor& a);

/// Max |a-b|; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// True if max |a-b| <= atol + rtol * max|b|.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

}  // namespace tvbf
