#include <memory>
#include <vector>

#include "nn/ops.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::nn {

using detail::Node;

Variable softmax_last(const Variable& a) {
  Tensor out = tvbf::softmax_last(a.value());
  const std::int64_t w = out.shape().back();
  return Variable::make_op(
      std::move(out), {a},
      [w](Node& n) {
        if (!n.parents[0]->requires_grad) return;
        Tensor& gx = n.parents[0]->ensure_grad();
        const float* y = n.value.raw();
        const float* dy = n.grad.raw();
        const std::int64_t rows = n.value.size() / w;
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* yr = y + r * w;
          const float* dyr = dy + r * w;
          float* gr = gx.raw() + r * w;
          double dot = 0.0;
          for (std::int64_t j = 0; j < w; ++j)
            dot += static_cast<double>(dyr[j]) * yr[j];
          for (std::int64_t j = 0; j < w; ++j)
            gr[j] += yr[j] * (dyr[j] - static_cast<float>(dot));
        }
      },
      "softmax_last");
}

Variable layer_norm(const Variable& a, const Variable& gamma,
                    const Variable& beta, float epsilon) {
  // Cache the normalized activations and inverse std-dev for backward.
  auto xhat = std::make_shared<Tensor>();
  auto inv_std = std::make_shared<std::vector<float>>();
  Tensor out = tvbf::layer_norm(a.value(), gamma.value(), beta.value(),
                                epsilon, xhat.get(), inv_std.get());
  const std::int64_t w = out.shape().back();
  return Variable::make_op(
      std::move(out), {a, gamma, beta},
      [w, xhat, inv_std](Node& n) {
        const std::int64_t rows = n.value.size() / w;
        const float* dy = n.grad.raw();
        const float* h = xhat->raw();
        const float* g = n.parents[1]->value.raw();
        if (n.parents[2]->requires_grad) {
          float* gb = n.parents[2]->ensure_grad().raw();
          for (std::int64_t r = 0; r < rows; ++r)
            for (std::int64_t j = 0; j < w; ++j) gb[j] += dy[r * w + j];
        }
        if (n.parents[1]->requires_grad) {
          float* gg = n.parents[1]->ensure_grad().raw();
          for (std::int64_t r = 0; r < rows; ++r)
            for (std::int64_t j = 0; j < w; ++j)
              gg[j] += dy[r * w + j] * h[r * w + j];
        }
        if (n.parents[0]->requires_grad) {
          float* gx = n.parents[0]->ensure_grad().raw();
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* dyr = dy + r * w;
            const float* hr = h + r * w;
            float* gxr = gx + r * w;
            const float istd = (*inv_std)[static_cast<std::size_t>(r)];
            // dxhat = dy * gamma; dx = istd*(dxhat - mean(dxhat)
            //                                - xhat * mean(dxhat*xhat)).
            double m1 = 0.0, m2 = 0.0;
            for (std::int64_t j = 0; j < w; ++j) {
              const double dxh = static_cast<double>(dyr[j]) * g[j];
              m1 += dxh;
              m2 += dxh * hr[j];
            }
            m1 /= static_cast<double>(w);
            m2 /= static_cast<double>(w);
            for (std::int64_t j = 0; j < w; ++j) {
              const double dxh = static_cast<double>(dyr[j]) * g[j];
              gxr[j] += static_cast<float>(istd * (dxh - m1 - hr[j] * m2));
            }
          }
        }
      },
      "layer_norm");
}

}  // namespace tvbf::nn
