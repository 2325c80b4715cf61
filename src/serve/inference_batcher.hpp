// Cross-session inference batching.
//
// Sessions running learned beamformers produce one (nz, nx, nch) patch
// tensor per frame. Dispatching each alone spends part of the forward
// pass on per-op overhead (GEMM packing, thread fan-out) — the same
// per-frame fixed cost the PlanCache removes from the
// geometry stage. The batcher stacks every cube that is ready across
// sessions along the depth axis and runs ONE forward pass through the
// tensor/kernels datapath, splitting the IQ images back per frame. The
// stack axis is the row-independent one, so batched outputs stay
// bit-identical to per-frame calls (bf::BatchedBeamformer contract).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "beamform/beamformer.hpp"
#include "device/device.hpp"

namespace tvbf::serve {

/// Stateless dispatch + usage counters. dispatch() may be called from any
/// one thread at a time per batcher; stats() and preferred_batch() are
/// thread-safe.
class InferenceBatcher {
 public:
  struct Stats {
    std::int64_t batches = 0;    ///< forward passes dispatched
    std::int64_t frames = 0;     ///< frames across all batches
    std::int64_t max_batch = 0;  ///< largest single batch
    double forward_s = 0.0;      ///< wall time inside beamform_batch
    /// Last cost-derived preferred batch (0 until preferred_batch runs).
    std::int64_t preferred_batch = 0;

    double mean_batch() const {
      return batches > 0 ? static_cast<double>(frames) /
                               static_cast<double>(batches)
                         : 0.0;
    }
  };

  /// Minimum relative per-frame latency gain a larger batch must deliver
  /// to keep growing the preferred batch (see preferred_batch).
  static constexpr double kMarginalGain = 0.03;

  /// Caps one dispatch; larger groups are split into max_batch chunks.
  explicit InferenceBatcher(std::size_t max_batch = 16);

  /// Runs one batched pass (chunked at max_batch) over the cubes and
  /// returns one IQ image per cube, in order.
  std::vector<Tensor> dispatch(const bf::BatchedBeamformer& beamformer,
                               const std::vector<const us::TofCube*>& cubes);

  /// Cost-aware batch sizing: the batch size in [1, cap] that `device`'s
  /// cost model prefers for stacking `beamformer` frames of nz_frame depth
  /// rows. Grows the batch while the estimated per-frame latency
  /// est(b)/b keeps improving by at least kMarginalGain — on backends with
  /// a large per-dispatch overhead (the modeled accelerator's host DMA)
  /// that sustains far longer than on the CPU, so the preferred batch is
  /// correspondingly larger. Falls back to `cap` (structural sizing) when
  /// the beamformer cannot encode a cost probe. Deterministic (pure
  /// dimension arithmetic) and cached per (device, beamformer, nz, cap).
  std::size_t preferred_batch(const device::Device& device,
                              const bf::BatchedBeamformer& beamformer,
                              std::int64_t nz_frame, std::size_t cap) const;

  Stats stats() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace tvbf::serve
