// Common beamformer interface.
//
// Every image-formation method in the paper (DAS, MVDR, and the learned
// models via an adapter in src/models) maps a ToF-corrected cube to an
// IQ image of shape (nz, nx, 2). Envelope/log-compression happens downstream
// in src/metrics, identically for all methods, so comparisons are fair.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "device/command.hpp"
#include "tensor/tensor.hpp"
#include "us/tof.hpp"

namespace tvbf::us {
class TofPlan;
}  // namespace tvbf::us

namespace tvbf::bf {

/// Abstract image-formation method over ToF-corrected channel data.
class Beamformer {
 public:
  virtual ~Beamformer() = default;

  /// Human-readable method name ("DAS", "MVDR", ...).
  virtual std::string name() const = 0;

  /// Forms the IQ image, shape (nz, nx, 2). Implementations document which
  /// cube flavor (RF-only or analytic) they require.
  virtual Tensor beamform(const us::TofCube& cube) const = 0;

  /// Forms the IQ image of `acq` through `plan` without its ToF cube, where
  /// the method can: the image equals beamform(plan.apply(acq, false)) bit
  /// for bit. Returns nullopt to decline; the caller then applies the plan
  /// and calls beamform(). The default declines.
  virtual std::optional<Tensor> beamform_through(
      const us::TofPlan& plan, const us::Acquisition& acq) const {
    (void)plan;
    (void)acq;
    return std::nullopt;
  }
};

/// Capability interface for beamformers whose per-depth-row computation is
/// independent, so several frames' cubes can be stacked along the depth
/// axis and formed in one pass (the serving layer's cross-session
/// inference batcher dispatches through this). Contract: beamform_batch
/// returns exactly what beamform would return per cube, bit for bit — the
/// batch only amortizes per-pass setup (GEMM packing, graph allocation,
/// thread fan-out). Methods with cross-row stages (e.g. a per-column
/// Hilbert transform over the whole image) must not implement this.
class BatchedBeamformer : public Beamformer {
 public:
  /// Forms every cube's IQ image in one pass. All cubes must share the
  /// lateral extent and channel count; depth extents may differ.
  virtual std::vector<Tensor> beamform_batch(
      const std::vector<const us::TofCube*>& cubes) const = 0;

  /// Encodes an estimate-only command-list probe of one beamform_batch
  /// pass over `nz_total` stacked depth rows (commands carry null data
  /// pointers — price them, never submit them). Returns false when the
  /// method cannot describe its cost structurally; the serving layer then
  /// falls back to structural (cost-blind) batch sizing.
  virtual bool encode_cost_probe(device::CommandEncoder& encoder,
                                 std::int64_t nz_total) const {
    (void)encoder;
    (void)nz_total;
    return false;
  }
};

}  // namespace tvbf::bf
