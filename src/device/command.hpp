// Typed command set of the device layer.
//
// The GEMM family behind the tensor/nn/quant matmuls, the SAME-conv2d
// forward/backward kernels and the DAS apply are expressed as plain-struct
// commands over raw pointers and dimensions. A CommandEncoder records
// commands into a CommandList; a device::Device consumes the list, either
// executing it (CpuDevice, AccelDevice) or pricing it (estimate_seconds,
// which reads only the dimensions — commands encoded with null pointers
// are legal as estimate-only cost probes and must never be submitted).
//
// The command structs sit below every compute module: they depend only on
// kernels/ (Conv2dShape), so tensor, dsp, nn, beamform, runtime and serve
// can all encode against them without cycles.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "kernels/conv.hpp"

namespace tvbf::device {

// ---- GEMM family -----------------------------------------------------------

/// C = A.B with a (m, k), b (k, n), c (m, n), all row-major packed.
struct GemmCmd {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  std::int64_t m = 0, k = 0, n = 0;
};

/// Per-batch C[i] = A[i].B[i] (or A[i].B[i]^T when transpose_b): a is
/// (batch, m, k); b is (batch, k, n), or (batch, n, k) transposed; c is
/// (batch, m, n).
struct BatchedGemmCmd {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  std::int64_t batch = 0, m = 0, k = 0, n = 0;
  bool transpose_b = false;
};

/// C += A^T.B with a (m, k), b (m, n), c (k, n) — the dB shape of the
/// matmul backward pass.
struct GemmTnCmd {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  std::int64_t m = 0, k = 0, n = 0;
};

// ---- SAME conv2d -----------------------------------------------------------

/// out = conv2d_same(in, kernel); overwrites out.
struct Conv2dForwardCmd {
  const float* in = nullptr;
  const float* kernel = nullptr;
  float* out = nullptr;
  kernels::Conv2dShape shape;
};

/// gb(co) += sum_{h,w} dy(h, w, co).
struct Conv2dBackwardBiasCmd {
  const float* dy = nullptr;
  float* gb = nullptr;
  kernels::Conv2dShape shape;
};

/// gk += d(conv)/d(kernel) contraction of in with dy.
struct Conv2dBackwardKernelCmd {
  const float* in = nullptr;
  const float* dy = nullptr;
  float* gk = nullptr;
  kernels::Conv2dShape shape;
};

/// gx += d(conv)/d(input) contraction of kernel with dy.
struct Conv2dBackwardInputCmd {
  const float* kernel = nullptr;
  const float* dy = nullptr;
  float* gx = nullptr;
  kernels::Conv2dShape shape;
};

// ---- Beamforming -----------------------------------------------------------

/// Weighted channel sum of a ToF cube (DAS apply). re/im are (nz, nx, nch)
/// cube planes (im null for RF); out is (nz, nx) beamformed RF when im is
/// null, interleaved (nz, nx, 2) IQ otherwise. Apodization weights stay
/// with the caller: `weights(ctx, iz, ix, w)` must fill w with nch per-
/// channel weights for that pixel (w is a reusable per-row scratch vector,
/// mirroring the pre-refactor loop's allocation pattern).
struct DasApplyCmd {
  const float* re = nullptr;
  const float* im = nullptr;
  float* out = nullptr;
  std::int64_t nz = 0, nx = 0, nch = 0;
  const void* ctx = nullptr;
  void (*weights)(const void* ctx, std::int64_t iz, std::int64_t ix,
                  std::vector<float>& w) = nullptr;
};

// ---- Command list / encoder ------------------------------------------------

using Command =
    std::variant<GemmCmd, BatchedGemmCmd, GemmTnCmd, Conv2dForwardCmd,
                 Conv2dBackwardBiasCmd, Conv2dBackwardKernelCmd,
                 Conv2dBackwardInputCmd, DasApplyCmd>;

using CommandList = std::vector<Command>;

/// Records commands in submission order. The encoder is cheap and
/// stack-local by design: encode, finish(), submit.
class CommandEncoder {
 public:
  CommandEncoder& encode(Command cmd) {
    list_.push_back(std::move(cmd));
    return *this;
  }

  CommandEncoder& gemm(const float* a, const float* b, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n) {
    return encode(GemmCmd{a, b, c, m, k, n});
  }

  CommandEncoder& batched_gemm(const float* a, const float* b, float* c,
                               std::int64_t batch, std::int64_t m,
                               std::int64_t k, std::int64_t n,
                               bool transpose_b = false) {
    return encode(BatchedGemmCmd{a, b, c, batch, m, k, n, transpose_b});
  }

  CommandEncoder& gemm_tn(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
    return encode(GemmTnCmd{a, b, c, m, k, n});
  }

  std::size_t size() const { return list_.size(); }
  bool empty() const { return list_.empty(); }

  /// Moves the recorded list out; the encoder is empty afterwards.
  CommandList finish() { return std::move(list_); }

 private:
  CommandList list_;
};

}  // namespace tvbf::device
