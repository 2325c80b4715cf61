#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "device/device.hpp"
#include "kernels/reduce.hpp"

namespace tvbf {
namespace {

void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  TVBF_REQUIRE(same_shape(a.shape(), b.shape()),
               std::string(op) + ": shape mismatch " + to_string(a.shape()) +
                   " vs " + to_string(b.shape()));
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "add");
  Tensor c(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  for (std::int64_t i = 0; i < a.size(); ++i) pc[i] = pa[i] + pb[i];
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "sub");
  Tensor c(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  for (std::int64_t i = 0; i < a.size(); ++i) pc[i] = pa[i] - pb[i];
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "mul");
  Tensor c(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  for (std::int64_t i = 0; i < a.size(); ++i) pc[i] = pa[i] * pb[i];
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c(a.shape());
  const float* pa = a.raw();
  float* pc = c.raw();
  for (std::int64_t i = 0; i < a.size(); ++i) pc[i] = pa[i] * s;
  return c;
}

void add_inplace(Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "add_inplace");
  float* pa = a.raw();
  const float* pb = b.raw();
  for (std::int64_t i = 0; i < a.size(); ++i) pa[i] += pb[i];
}

void axpy_inplace(Tensor& a, float s, const Tensor& b) {
  require_same_shape(a, b, "axpy_inplace");
  float* pa = a.raw();
  const float* pb = b.raw();
  for (std::int64_t i = 0; i < a.size(); ++i) pa[i] += s * pb[i];
}

Tensor add_bias(const Tensor& a, const Tensor& bias) {
  TVBF_REQUIRE(a.rank() >= 1, "add_bias needs rank >= 1 input");
  TVBF_REQUIRE(bias.rank() == 1, "bias must be rank 1");
  const std::int64_t n = a.shape().back();
  TVBF_REQUIRE(bias.size() == n,
               "bias length " + std::to_string(bias.size()) +
                   " does not match trailing dim " + std::to_string(n));
  Tensor c = a;
  float* pc = c.raw();
  const float* pb = bias.raw();
  const std::int64_t rows = a.size() / n;
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = pc + r * n;
    for (std::int64_t j = 0; j < n; ++j) row[j] += pb[j];
  }
  return c;
}

Tensor relu(const Tensor& a) {
  Tensor c(a.shape());
  const float* pa = a.raw();
  float* pc = c.raw();
  for (std::int64_t i = 0; i < a.size(); ++i) pc[i] = pa[i] > 0.0f ? pa[i] : 0.0f;
  return c;
}

Tensor tanh_t(const Tensor& a) {
  Tensor c(a.shape());
  const float* pa = a.raw();
  float* pc = c.raw();
  for (std::int64_t i = 0; i < a.size(); ++i) pc[i] = std::tanh(pa[i]);
  return c;
}

float sum(const Tensor& a) {
  double s = 0.0;  // double accumulator: stable for large tensors
  for (float v : a.data()) s += v;
  return static_cast<float>(s);
}

float mean(const Tensor& a) {
  TVBF_REQUIRE(a.size() > 0, "mean of empty tensor");
  return sum(a) / static_cast<float>(a.size());
}

float min_value(const Tensor& a) {
  TVBF_REQUIRE(a.size() > 0, "min of empty tensor");
  return *std::min_element(a.data().begin(), a.data().end());
}

float max_value(const Tensor& a) {
  TVBF_REQUIRE(a.size() > 0, "max of empty tensor");
  return *std::max_element(a.data().begin(), a.data().end());
}

float max_abs(const Tensor& a) { return kernels::max_abs(a.raw(), a.size()); }

Tensor matmul(const Tensor& a, const Tensor& b) {
  TVBF_REQUIRE(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2 inputs");
  const std::int64_t m = a.dim(0), k = a.dim(1);
  TVBF_REQUIRE(b.dim(0) == k, "matmul inner dims differ: " +
                                  to_string(a.shape()) + " x " +
                                  to_string(b.shape()));
  const std::int64_t n = b.dim(1);
  Tensor c({m, n});
  device::cpu().submit(
      device::CommandEncoder().gemm(a.raw(), b.raw(), c.raw(), m, k, n)
          .finish());
  return c;
}

Tensor batched_matmul(const Tensor& a, const Tensor& b) {
  TVBF_REQUIRE(a.rank() == 3, "batched_matmul needs rank-3 lhs");
  const std::int64_t B = a.dim(0), m = a.dim(1), k = a.dim(2);
  const bool broadcast = b.rank() == 2;
  TVBF_REQUIRE(broadcast || b.rank() == 3,
               "batched_matmul rhs must be rank 2 or 3");
  if (!broadcast)
    TVBF_REQUIRE(b.dim(0) == B, "batch sizes differ: " + to_string(a.shape()) +
                                    " x " + to_string(b.shape()));
  const std::int64_t bk = broadcast ? b.dim(0) : b.dim(1);
  const std::int64_t n = broadcast ? b.dim(1) : b.dim(2);
  TVBF_REQUIRE(bk == k, "batched_matmul inner dims differ: " +
                            to_string(a.shape()) + " x " + to_string(b.shape()));
  Tensor c({B, m, n});
  device::CommandEncoder enc;
  if (broadcast) {
    // One rhs for every batch: fold the batch into the rows and run a single
    // flat GEMM, so the packed B panels are reused across the whole batch.
    enc.gemm(a.raw(), b.raw(), c.raw(), B * m, k, n);
  } else {
    enc.batched_gemm(a.raw(), b.raw(), c.raw(), B, m, k, n);
  }
  device::cpu().submit(enc.finish());
  return c;
}

Tensor transpose(const Tensor& a) {
  TVBF_REQUIRE(a.rank() == 2, "transpose needs a rank-2 tensor");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor c({n, m});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) c.raw()[j * m + i] = a.raw()[i * n + j];
  return c;
}

Tensor transpose_last2(const Tensor& a) {
  TVBF_REQUIRE(a.rank() == 3, "transpose_last2 needs a rank-3 tensor");
  const std::int64_t B = a.dim(0), m = a.dim(1), n = a.dim(2);
  Tensor c({B, n, m});
  for (std::int64_t b = 0; b < B; ++b) {
    const float* pa = a.raw() + b * m * n;
    float* pc = c.raw() + b * m * n;
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) pc[j * m + i] = pa[i * n + j];
  }
  return c;
}

Tensor softmax_last(const Tensor& x) {
  TVBF_REQUIRE(x.rank() >= 1, "softmax_last needs rank >= 1");
  const std::int64_t w = x.shape().back();
  TVBF_REQUIRE(w >= 1, "softmax over an empty axis");
  Tensor out(x.shape());
  kernels::softmax_rows(x.raw(), out.raw(), x.size() / w, w);
  return out;
}

Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float epsilon, Tensor* xhat, std::vector<float>* inv_std) {
  TVBF_REQUIRE(x.rank() >= 1, "layer_norm needs rank >= 1");
  const std::int64_t w = x.shape().back();
  TVBF_REQUIRE(gamma.rank() == 1 && gamma.size() == w,
               "layer_norm gamma must be rank 1 of trailing-dim length");
  TVBF_REQUIRE(beta.rank() == 1 && beta.size() == w,
               "layer_norm beta must be rank 1 of trailing-dim length");
  TVBF_REQUIRE(epsilon > 0.0f, "layer_norm epsilon must be positive");
  const std::int64_t rows = x.size() / w;
  Tensor out(x.shape());
  if (xhat != nullptr) *xhat = Tensor(x.shape());
  if (inv_std != nullptr) inv_std->assign(static_cast<std::size_t>(rows), 0.0f);
  kernels::layer_norm_rows(x.raw(), out.raw(), rows, w, gamma.raw(),
                           beta.raw(), epsilon,
                           xhat != nullptr ? xhat->raw() : nullptr,
                           inv_std != nullptr ? inv_std->data() : nullptr);
  return out;
}

Tensor slice0(const Tensor& a, std::int64_t begin, std::int64_t end) {
  TVBF_REQUIRE(a.rank() >= 1, "slice0 needs rank >= 1");
  TVBF_REQUIRE(begin >= 0 && begin <= end && end <= a.dim(0),
               "slice0 range [" + std::to_string(begin) + ", " +
                   std::to_string(end) + ") out of bounds for " +
                   to_string(a.shape()));
  Shape s = a.shape();
  s[0] = end - begin;
  Tensor c(s);
  const std::int64_t stride = a.size() / a.dim(0);
  std::copy(a.raw() + begin * stride, a.raw() + end * stride, c.raw());
  return c;
}

Tensor concat0(const Tensor& a, const Tensor& b) {
  TVBF_REQUIRE(a.rank() == b.rank() && a.rank() >= 1,
               "concat0 needs equal ranks >= 1");
  for (std::int64_t ax = 1; ax < a.rank(); ++ax)
    TVBF_REQUIRE(a.dim(ax) == b.dim(ax),
                 "concat0 trailing shape mismatch: " + to_string(a.shape()) +
                     " vs " + to_string(b.shape()));
  Shape s = a.shape();
  s[0] = a.dim(0) + b.dim(0);
  Tensor c(s);
  std::copy(a.data().begin(), a.data().end(), c.raw());
  std::copy(b.data().begin(), b.data().end(), c.raw() + a.size());
  return c;
}

float l2_norm(const Tensor& a) {
  double s = 0.0;
  for (float v : a.data()) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "max_abs_diff");
  float m = 0.0f;
  for (std::int64_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a.raw()[i] - b.raw()[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!same_shape(a.shape(), b.shape())) return false;
  return max_abs_diff(a, b) <= atol + rtol * max_abs(b);
}

}  // namespace tvbf
