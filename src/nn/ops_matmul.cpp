#include "device/device.hpp"
#include "nn/ops.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::nn {

using detail::Node;

Variable matmul(const Variable& a, const Variable& b) {
  Tensor out = tvbf::matmul(a.value(), b.value());
  return Variable::make_op(
      std::move(out), {a, b},
      [](Node& n) {
        const Tensor& A = n.parents[0]->value;
        const Tensor& B = n.parents[1]->value;
        if (n.parents[0]->requires_grad)  // dA = dC B^T
          add_inplace(n.parents[0]->ensure_grad(),
                      tvbf::matmul(n.grad, transpose(B)));
        if (n.parents[1]->requires_grad)  // dB = A^T dC
          add_inplace(n.parents[1]->ensure_grad(),
                      tvbf::matmul(transpose(A), n.grad));
      },
      "matmul");
}

Variable batched_matmul(const Variable& a, const Variable& b) {
  Tensor out = tvbf::batched_matmul(a.value(), b.value());
  const bool broadcast = b.value().rank() == 2;
  return Variable::make_op(
      std::move(out), {a, b},
      [broadcast](Node& n) {
        const Tensor& A = n.parents[0]->value;  // (B,m,k)
        const Tensor& B = n.parents[1]->value;  // (k,n) or (B,k,n)
        const std::int64_t batch = A.dim(0), m = A.dim(1), k = A.dim(2);
        const std::int64_t nn = broadcast ? B.dim(1) : B.dim(2);
        if (n.parents[0]->requires_grad) {
          // dA[b] = dC[b] B(^T per batch)
          Tensor bt = broadcast ? transpose(B) : transpose_last2(B);
          add_inplace(n.parents[0]->ensure_grad(),
                      tvbf::batched_matmul(n.grad, bt));
        }
        if (n.parents[1]->requires_grad) {
          Tensor& gb = n.parents[1]->ensure_grad();
          if (broadcast) {
            // dB = sum_b A[b]^T dC[b] = A_flat^T dC_flat with the batch
            // folded into the rows; threaded over the k rows of dB.
            device::cpu().submit(
                device::CommandEncoder()
                    .gemm_tn(A.raw(), n.grad.raw(), gb.raw(), batch * m, k,
                             nn)
                    .finish());
          } else {
            add_inplace(gb, tvbf::batched_matmul(transpose_last2(A), n.grad));
          }
        }
      },
      "batched_matmul");
}

}  // namespace tvbf::nn
