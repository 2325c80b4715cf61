#include "device/device.hpp"
#include "kernels/conv.hpp"
#include "nn/ops.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::nn {

using detail::Node;

namespace {

kernels::Conv2dShape conv_shape(const Tensor& in, const Tensor& k) {
  return {.H = in.dim(0),
          .W = in.dim(1),
          .Ci = in.dim(2),
          .kh = k.dim(0),
          .kw = k.dim(1),
          .Co = k.dim(3)};
}

}  // namespace

Variable conv2d_same(const Variable& input, const Variable& kernel,
                     const Variable& bias) {
  const Tensor& in = input.value();
  const Tensor& k = kernel.value();
  TVBF_REQUIRE(in.rank() == 3, "conv2d input must be (H, W, Cin)");
  TVBF_REQUIRE(k.rank() == 4, "conv2d kernel must be (kh, kw, Cin, Cout)");
  TVBF_REQUIRE(k.dim(2) == in.dim(2),
               "conv2d kernel Cin " + std::to_string(k.dim(2)) +
                   " does not match input channels " + std::to_string(in.dim(2)));
  TVBF_REQUIRE(k.dim(0) % 2 == 1 && k.dim(1) % 2 == 1,
               "SAME padding requires odd kernel extents");
  TVBF_REQUIRE(bias.value().rank() == 1 && bias.value().size() == k.dim(3),
               "conv2d bias must be rank 1 of Cout length");
  const std::int64_t H = in.dim(0), W = in.dim(1);
  const std::int64_t Co = k.dim(3);
  Tensor out({H, W, Co});
  device::cpu().submit(
      device::CommandEncoder()
          .encode(device::Conv2dForwardCmd{in.raw(), k.raw(), out.raw(),
                                           conv_shape(in, k)})
          .finish());
  out = tvbf::add_bias(out, bias.value());
  return Variable::make_op(
      std::move(out), {input, kernel, bias},
      [](Node& n) {
        const Tensor& in = n.parents[0]->value;
        const Tensor& k = n.parents[1]->value;
        const kernels::Conv2dShape s = conv_shape(in, k);
        const float* dy = n.grad.raw();
        device::CommandEncoder enc;
        if (n.parents[2]->requires_grad)
          enc.encode(device::Conv2dBackwardBiasCmd{
              dy, n.parents[2]->ensure_grad().raw(), s});
        if (n.parents[1]->requires_grad)
          enc.encode(device::Conv2dBackwardKernelCmd{
              in.raw(), dy, n.parents[1]->ensure_grad().raw(), s});
        if (n.parents[0]->requires_grad)
          enc.encode(device::Conv2dBackwardInputCmd{
              k.raw(), dy, n.parents[0]->ensure_grad().raw(), s});
        if (!enc.empty()) device::cpu().submit(enc.finish());
      },
      "conv2d_same");
}

}  // namespace tvbf::nn
