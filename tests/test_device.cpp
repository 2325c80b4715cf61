// Device-layer suite: the CpuDevice backend must be bit-identical to the
// direct kernel calls the hot paths used before the command-list refactor,
// count what it executes, and refuse commands with null operands.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "device/cpu_device.hpp"
#include "device/device.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::device {
namespace {

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

// ---- CpuDevice bit-identity ------------------------------------------------

TEST(CpuDevice, GemmBitIdenticalToDirectKernel) {
  Rng rng(1);
  const std::int64_t m = 33, k = 65, n = 17;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor via_device({m, n}), direct({m, n});
  cpu().submit(
      CommandEncoder().gemm(a.raw(), b.raw(), via_device.raw(), m, k, n)
          .finish());
  kernels::gemm(a.raw(), b.raw(), direct.raw(), m, k, n);
  EXPECT_EQ(max_abs_diff(via_device, direct), 0.0f);
}

TEST(CpuDevice, BatchedGemmBitIdenticalToPerBatchKernel) {
  Rng rng(2);
  const std::int64_t batch = 5, m = 9, k = 21, n = 13;
  const Tensor a = random_tensor({batch, m, k}, rng);
  const Tensor b = random_tensor({batch, k, n}, rng);
  Tensor via_device({batch, m, n}), direct({batch, m, n});
  cpu().submit(CommandEncoder()
                   .batched_gemm(a.raw(), b.raw(), via_device.raw(), batch, m,
                                 k, n)
                   .finish());
  for (std::int64_t i = 0; i < batch; ++i)
    kernels::gemm_rows(a.raw() + i * m * k, b.raw() + i * k * n,
                       direct.raw() + i * m * n, m, k, n, 0, m);
  EXPECT_EQ(max_abs_diff(via_device, direct), 0.0f);
}

TEST(CpuDevice, BatchedGemmNtBitIdenticalToPerBatchKernel) {
  Rng rng(3);
  const std::int64_t batch = 4, m = 7, k = 15, n = 11;
  const Tensor a = random_tensor({batch, m, k}, rng);
  const Tensor b = random_tensor({batch, n, k}, rng);  // (n, k) rows: B^T
  Tensor via_device({batch, m, n}), direct({batch, m, n});
  cpu().submit(CommandEncoder()
                   .batched_gemm(a.raw(), b.raw(), via_device.raw(), batch, m,
                                 k, n, /*transpose_b=*/true)
                   .finish());
  for (std::int64_t i = 0; i < batch; ++i)
    kernels::gemm_nt_rows(a.raw() + i * m * k, b.raw() + i * n * k,
                          direct.raw() + i * m * n, m, k, n, 0, m);
  EXPECT_EQ(max_abs_diff(via_device, direct), 0.0f);
}

TEST(CpuDevice, GemmTnAccumulatesBitIdentically) {
  Rng rng(4);
  const std::int64_t m = 19, k = 12, n = 23;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({m, n}, rng);
  Tensor via_device = random_tensor({k, n}, rng);  // C += A^T.B
  Tensor direct = via_device;
  cpu().submit(
      CommandEncoder().gemm_tn(a.raw(), b.raw(), via_device.raw(), m, k, n)
          .finish());
  kernels::gemm_tn_accumulate(a.raw(), b.raw(), direct.raw(), m, k, n);
  EXPECT_EQ(max_abs_diff(via_device, direct), 0.0f);
}

TEST(CpuDevice, ConvCommandsBitIdenticalToDirectKernels) {
  Rng rng(5);
  const kernels::Conv2dShape s{11, 9, 3, 3, 5, 4};
  const Tensor in = random_tensor({s.H, s.W, s.Ci}, rng);
  const Tensor kernel = random_tensor({s.kh, s.kw, s.Ci, s.Co}, rng);
  const Tensor dy = random_tensor({s.H, s.W, s.Co}, rng);

  Tensor out_dev({s.H, s.W, s.Co}), out_direct({s.H, s.W, s.Co});
  Tensor gb_dev({s.Co}), gb_direct({s.Co});
  Tensor gk_dev({s.kh, s.kw, s.Ci, s.Co}), gk_direct({s.kh, s.kw, s.Ci, s.Co});
  Tensor gx_dev({s.H, s.W, s.Ci}), gx_direct({s.H, s.W, s.Ci});

  cpu().submit(
      CommandEncoder()
          .encode(Conv2dForwardCmd{in.raw(), kernel.raw(), out_dev.raw(), s})
          .encode(Conv2dBackwardBiasCmd{dy.raw(), gb_dev.raw(), s})
          .encode(Conv2dBackwardKernelCmd{in.raw(), dy.raw(), gk_dev.raw(), s})
          .encode(
              Conv2dBackwardInputCmd{kernel.raw(), dy.raw(), gx_dev.raw(), s})
          .finish());
  kernels::conv2d_same_forward(in.raw(), kernel.raw(), out_direct.raw(), s);
  kernels::conv2d_same_backward_bias(dy.raw(), gb_direct.raw(), s);
  kernels::conv2d_same_backward_kernel(in.raw(), dy.raw(), gk_direct.raw(), s);
  kernels::conv2d_same_backward_input(kernel.raw(), dy.raw(), gx_direct.raw(),
                                      s);
  EXPECT_EQ(max_abs_diff(out_dev, out_direct), 0.0f);
  EXPECT_EQ(max_abs_diff(gb_dev, gb_direct), 0.0f);
  EXPECT_EQ(max_abs_diff(gk_dev, gk_direct), 0.0f);
  EXPECT_EQ(max_abs_diff(gx_dev, gx_direct), 0.0f);
}

/// Pixel-dependent test weights for DasApplyCmd (stands in for the
/// apodization callback beamform/ binds).
struct TestWeights {
  std::int64_t nch = 0;

  static void fill(const void* ctx, std::int64_t iz, std::int64_t ix,
                   std::vector<float>& w) {
    const auto& self = *static_cast<const TestWeights*>(ctx);
    w.assign(static_cast<std::size_t>(self.nch), 0.0f);
    for (std::int64_t e = 0; e < self.nch; ++e)
      w[static_cast<std::size_t>(e)] =
          1.0f / static_cast<float>(1 + e + (iz + ix) % 3);
  }
};

TEST(CpuDevice, DasApplyRfMatchesSerialReference) {
  Rng rng(7);
  const std::int64_t nz = 9, nx = 6, nch = 4;
  const Tensor re = random_tensor({nz, nx, nch}, rng);
  const TestWeights ctx{nch};
  Tensor out({nz, nx});
  cpu().submit(CommandEncoder()
                   .encode(DasApplyCmd{re.raw(), nullptr, out.raw(), nz, nx,
                                       nch, &ctx, TestWeights::fill})
                   .finish());
  std::vector<float> w;
  for (std::int64_t iz = 0; iz < nz; ++iz)
    for (std::int64_t ix = 0; ix < nx; ++ix) {
      TestWeights::fill(&ctx, iz, ix, w);
      double acc = 0.0;
      for (std::int64_t e = 0; e < nch; ++e)
        acc += static_cast<double>(w[static_cast<std::size_t>(e)]) *
               re.raw()[(iz * nx + ix) * nch + e];
      EXPECT_EQ(out.raw()[iz * nx + ix], static_cast<float>(acc))
          << iz << "," << ix;
    }
}

TEST(CpuDevice, DasApplyIqMatchesSerialReference) {
  Rng rng(8);
  const std::int64_t nz = 8, nx = 5, nch = 3;
  const Tensor re = random_tensor({nz, nx, nch}, rng);
  const Tensor im = random_tensor({nz, nx, nch}, rng);
  const TestWeights ctx{nch};
  Tensor out({nz, nx, 2});
  cpu().submit(CommandEncoder()
                   .encode(DasApplyCmd{re.raw(), im.raw(), out.raw(), nz, nx,
                                       nch, &ctx, TestWeights::fill})
                   .finish());
  std::vector<float> w;
  for (std::int64_t iz = 0; iz < nz; ++iz)
    for (std::int64_t ix = 0; ix < nx; ++ix) {
      TestWeights::fill(&ctx, iz, ix, w);
      double acc_re = 0.0, acc_im = 0.0;
      for (std::int64_t e = 0; e < nch; ++e) {
        const auto we =
            static_cast<double>(w[static_cast<std::size_t>(e)]);
        acc_re += we * re.raw()[(iz * nx + ix) * nch + e];
        acc_im += we * im.raw()[(iz * nx + ix) * nch + e];
      }
      EXPECT_EQ(out.raw()[(iz * nx + ix) * 2], static_cast<float>(acc_re));
      EXPECT_EQ(out.raw()[(iz * nx + ix) * 2 + 1],
                static_cast<float>(acc_im));
    }
}

// ---- Stats and operand discipline ------------------------------------------

TEST(Device, SubmitCountsListsAndCommands) {
  CpuDevice dev;
  Rng rng(9);
  const Tensor a = random_tensor({2, 3}, rng);
  const Tensor b = random_tensor({3, 2}, rng);
  Tensor c({2, 2}), d({2, 2});
  dev.submit(CommandEncoder()
                 .gemm(a.raw(), b.raw(), c.raw(), 2, 3, 2)
                 .gemm(a.raw(), b.raw(), d.raw(), 2, 3, 2)
                 .finish());
  EXPECT_EQ(dev.stats().lists, 1);
  EXPECT_EQ(dev.stats().commands, 2);
  EXPECT_EQ(dev.name(), "cpu");
}

TEST(Device, NullPointerCommandsNeverExecute) {
  CpuDevice dev;
  const CommandList list =
      CommandEncoder().gemm(nullptr, nullptr, nullptr, 64, 64, 64).finish();
  EXPECT_THROW(dev.submit(list), InvalidArgument);
  EXPECT_EQ(dev.stats().lists, 0);
}

}  // namespace
}  // namespace tvbf::device
