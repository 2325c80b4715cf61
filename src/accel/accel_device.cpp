#include "accel/accel_device.hpp"

namespace tvbf::accel {

void AccelDevice::execute(const device::CommandList& list) {
  // No deployable fabric: functional execution rides the CPU reference
  // backend so accel-backed sessions stay bit-identical, and only the cost
  // model below differs.
  cpu_.submit(list);
}

std::int64_t AccelDevice::command_cycles(const device::Command& cmd) const {
  struct Cycles {
    const AcceleratorSim& sim;
    std::int64_t operator()(const device::GemmCmd& c) const {
      return sim.matmul_cycles(1, c.m, c.k, c.n);
    }
    std::int64_t operator()(const device::BatchedGemmCmd& c) const {
      return sim.matmul_cycles(c.batch, c.m, c.k, c.n);
    }
    std::int64_t operator()(const device::GemmTnCmd& c) const {
      // C (k, n) += A^T.B: k*n outputs, inner dimension m.
      return sim.matmul_cycles(1, c.k, c.m, c.n);
    }
    std::int64_t operator()(const device::Conv2dForwardCmd& c) const {
      // Lowered shifted-segment matmul: (H*W) x (kh*kw*Ci) . (.., Co).
      const auto& s = c.shape;
      return sim.matmul_cycles(1, s.H * s.W, s.kh * s.kw * s.Ci, s.Co);
    }
    std::int64_t operator()(const device::Conv2dBackwardBiasCmd& c) const {
      const auto& s = c.shape;
      return sim.elementwise_cycles(s.H * s.W * s.Co);
    }
    std::int64_t operator()(const device::Conv2dBackwardKernelCmd& c) const {
      const auto& s = c.shape;
      return sim.matmul_cycles(1, s.kh * s.kw * s.Ci, s.H * s.W, s.Co);
    }
    std::int64_t operator()(const device::Conv2dBackwardInputCmd& c) const {
      const auto& s = c.shape;
      return sim.matmul_cycles(1, s.H * s.W, s.kh * s.kw * s.Co, s.Ci);
    }
    std::int64_t operator()(const device::DasApplyCmd& c) const {
      // Per-pixel weighted channel reduction == (nz*nx, nch) . (nch, planes).
      return sim.matmul_cycles(1, c.nz * c.nx, c.nch,
                               c.im != nullptr ? 2 : 1);
    }
  };
  return std::visit(Cycles{sim_}, cmd);
}

double AccelDevice::estimate_list(const device::CommandList& list) const {
  std::int64_t cycles = 0;
  for (const device::Command& cmd : list) cycles += command_cycles(cmd);
  return kDispatchOverheadSeconds +
         static_cast<double>(cycles) / sim_.config().clock_hz;
}

}  // namespace tvbf::accel
