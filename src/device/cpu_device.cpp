#include "device/cpu_device.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "kernels/gemm.hpp"

namespace tvbf::device {

namespace {

void run(const GemmCmd& cmd) {
  TVBF_REQUIRE(cmd.a != nullptr && cmd.b != nullptr && cmd.c != nullptr,
               "gemm command has null operands (estimate-only probe?)");
  kernels::gemm(cmd.a, cmd.b, cmd.c, cmd.m, cmd.k, cmd.n);
}

void run(const BatchedGemmCmd& cmd) {
  TVBF_REQUIRE(cmd.a != nullptr && cmd.b != nullptr && cmd.c != nullptr,
               "batched gemm command has null operands");
  const std::int64_t m = cmd.m, k = cmd.k, n = cmd.n;
  const float* a = cmd.a;
  const float* b = cmd.b;
  float* c = cmd.c;
  // Chunk the flat (batch, row) range, then hand each per-batch span of
  // consecutive rows to the blocked kernel in one call.
  parallel_for(
      0, static_cast<std::size_t>(cmd.batch * m),
      [&](std::size_t rb, std::size_t re) {
        std::size_t r = rb;
        while (r < re) {
          const auto batch = static_cast<std::int64_t>(r) / m;
          const auto row = static_cast<std::int64_t>(r) % m;
          const auto rows = std::min<std::int64_t>(
              static_cast<std::int64_t>(re - r), m - row);
          if (cmd.transpose_b) {
            kernels::gemm_nt_rows(a + batch * m * k, b + batch * n * k,
                                  c + batch * m * n, m, k, n, row,
                                  row + rows);
          } else {
            kernels::gemm_rows(a + batch * m * k, b + batch * k * n,
                               c + batch * m * n, m, k, n, row, row + rows);
          }
          r += static_cast<std::size_t>(rows);
        }
      },
      /*min_grain=*/8);
}

void run(const GemmTnCmd& cmd) {
  TVBF_REQUIRE(cmd.a != nullptr && cmd.b != nullptr && cmd.c != nullptr,
               "gemm_tn command has null operands");
  kernels::gemm_tn_accumulate(cmd.a, cmd.b, cmd.c, cmd.m, cmd.k, cmd.n);
}

void run(const Conv2dForwardCmd& cmd) {
  TVBF_REQUIRE(cmd.in != nullptr && cmd.kernel != nullptr &&
                   cmd.out != nullptr,
               "conv2d forward command has null operands");
  kernels::conv2d_same_forward(cmd.in, cmd.kernel, cmd.out, cmd.shape);
}

void run(const Conv2dBackwardBiasCmd& cmd) {
  TVBF_REQUIRE(cmd.dy != nullptr && cmd.gb != nullptr,
               "conv2d backward-bias command has null operands");
  kernels::conv2d_same_backward_bias(cmd.dy, cmd.gb, cmd.shape);
}

void run(const Conv2dBackwardKernelCmd& cmd) {
  TVBF_REQUIRE(cmd.in != nullptr && cmd.dy != nullptr && cmd.gk != nullptr,
               "conv2d backward-kernel command has null operands");
  kernels::conv2d_same_backward_kernel(cmd.in, cmd.dy, cmd.gk, cmd.shape);
}

void run(const Conv2dBackwardInputCmd& cmd) {
  TVBF_REQUIRE(cmd.kernel != nullptr && cmd.dy != nullptr &&
                   cmd.gx != nullptr,
               "conv2d backward-input command has null operands");
  kernels::conv2d_same_backward_input(cmd.kernel, cmd.dy, cmd.gx, cmd.shape);
}

void run(const DasApplyCmd& cmd) {
  TVBF_REQUIRE(cmd.re != nullptr && cmd.out != nullptr &&
                   cmd.weights != nullptr,
               "das apply command has null operands");
  const std::int64_t nx = cmd.nx, nch = cmd.nch;
  if (cmd.im == nullptr) {
    parallel_for_each(0, static_cast<std::size_t>(cmd.nz),
                      [&](std::size_t zi) {
      const auto iz = static_cast<std::int64_t>(zi);
      std::vector<float> w;
      for (std::int64_t ix = 0; ix < nx; ++ix) {
        cmd.weights(cmd.ctx, iz, ix, w);
        const float* re = cmd.re + (iz * nx + ix) * nch;
        double acc_re = 0.0;
        for (std::int64_t e = 0; e < nch; ++e)
          acc_re +=
              static_cast<double>(w[static_cast<std::size_t>(e)]) * re[e];
        cmd.out[iz * nx + ix] = static_cast<float>(acc_re);
      }
    }, /*min_grain=*/4);
    return;
  }
  parallel_for_each(0, static_cast<std::size_t>(cmd.nz), [&](std::size_t zi) {
    const auto iz = static_cast<std::int64_t>(zi);
    std::vector<float> w;
    for (std::int64_t ix = 0; ix < nx; ++ix) {
      cmd.weights(cmd.ctx, iz, ix, w);
      const float* re = cmd.re + (iz * nx + ix) * nch;
      const float* im = cmd.im + (iz * nx + ix) * nch;
      double acc_re = 0.0, acc_im = 0.0;
      for (std::int64_t e = 0; e < nch; ++e) {
        const auto we = static_cast<double>(w[static_cast<std::size_t>(e)]);
        acc_re += we * re[e];
        acc_im += we * im[e];
      }
      cmd.out[(iz * nx + ix) * 2] = static_cast<float>(acc_re);
      cmd.out[(iz * nx + ix) * 2 + 1] = static_cast<float>(acc_im);
    }
  }, /*min_grain=*/4);
}

}  // namespace

void CpuDevice::execute(const CommandList& list) {
  for (const Command& cmd : list)
    std::visit([](const auto& c) { run(c); }, cmd);
}

double CpuDevice::estimate_command_seconds(const Command& cmd) {
  return static_cast<double>(command_macs(cmd)) / kMacsPerSecond +
         kCommandOverheadSeconds;
}

double CpuDevice::estimate_list(const CommandList& list) const {
  double s = kListOverheadSeconds;
  for (const Command& cmd : list) s += estimate_command_seconds(cmd);
  return s;
}

}  // namespace tvbf::device
