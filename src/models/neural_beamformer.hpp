// Adapters exposing the learned models through the common Beamformer
// interface, so the metric/benchmark pipeline treats DAS, MVDR and the
// networks identically.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "beamform/beamformer.hpp"
#include "models/fcnn.hpp"
#include "models/tiny_cnn.hpp"
#include "models/tiny_vbf.hpp"
#include "us/tof_plan.hpp"

namespace tvbf::models {

/// Tiny-VBF as a Beamformer: runs the network on the RF cube scaled to
/// [-1, 1] (the engine's loader scales each slice of rows as it loads it),
/// or, through a plan that reads RF directly, on the same rows gathered
/// from the acquired RF without the cube; the network output is already an
/// IQ image. Batch-capable: the per-depth-row
/// transformer lets several frames stack into one forward pass (cubes are
/// normalized per frame first, so batched outputs are bit-identical to solo
/// beamform() calls).
class TinyVbfBeamformer : public bf::BatchedBeamformer {
 public:
  explicit TinyVbfBeamformer(std::shared_ptr<const TinyVbf> model);

  std::string name() const override { return "Tiny-VBF"; }
  Tensor beamform(const us::TofCube& cube) const override;
  /// Accepts plans that read RF directly (see infer_through).
  std::optional<Tensor> beamform_through(
      const us::TofPlan& plan, const us::Acquisition& acq) const override;
  std::vector<Tensor> beamform_batch(
      const std::vector<const us::TofCube*>& cubes) const override;
  bool encode_cost_probe(device::CommandEncoder& encoder,
                         std::int64_t nz_total) const override;

 private:
  std::shared_ptr<const TinyVbf> model_;
};

/// Tiny-CNN as a Beamformer: network emits beamformed RF; a per-column
/// Hilbert transform produces the IQ image (paper Section II).
class TinyCnnBeamformer : public bf::Beamformer {
 public:
  explicit TinyCnnBeamformer(std::shared_ptr<const TinyCnn> model);

  std::string name() const override { return "Tiny-CNN"; }
  Tensor beamform(const us::TofCube& cube) const override;

 private:
  std::shared_ptr<const TinyCnn> model_;
};

/// FCNN as a Beamformer (same RF -> IQ conversion as Tiny-CNN).
class FcnnBeamformer : public bf::Beamformer {
 public:
  explicit FcnnBeamformer(std::shared_ptr<const Fcnn> model);

  std::string name() const override { return "FCNN"; }
  Tensor beamform(const us::TofCube& cube) const override;

 private:
  std::shared_ptr<const Fcnn> model_;
};

/// 1 / max|x| of the cube's RF data (1 for an all-zero cube): the factor
/// that maps it to the networks' [-1, 1] input range.
float input_scale(const us::TofCube& cube);

/// Shared body of the Tiny-VBF adapters' beamform_through: for a plan that
/// reads RF directly (us::TofPlan::reads_rf), runs `infer` over the frame's
/// slot tables (us::TofPlan::slot_rows), scaled by 1 / plan.peak()
/// under input_scale()'s rule, so the image is the cube path's bit for bit.
/// Declines every other plan.
std::optional<Tensor> infer_through(
    const us::TofPlan& plan, const us::Acquisition& acq,
    const std::function<Tensor(const Shape&, const RowLayout&,
                               const RowLoader&)>& infer);

/// Normalized copy of the cube's RF data, each value times input_scale()
/// (shared by the adapters and the training-set builder so train/test
/// preprocessing cannot diverge).
Tensor normalized_input(const us::TofCube& cube);

/// Shared plumbing of every batch-of-frames entry point: stacks the
/// per-frame inputs along the depth axis, runs `infer` once on the stacked
/// tensor, and splits the output back per frame. Single-frame batches skip
/// the stack/split copies.
std::vector<Tensor> stacked_forward(
    const std::vector<const Tensor*>& inputs,
    const std::function<Tensor(const Tensor&)>& infer);

/// Shared body of the batch-capable beamformer adapters: normalizes each
/// cube per frame (so batched outputs stay bit-identical to solo
/// beamform() calls) and hands the normalized tensors to `infer_batch`.
std::vector<Tensor> beamform_batch_normalized(
    const std::vector<const us::TofCube*>& cubes,
    const std::function<std::vector<Tensor>(const std::vector<const Tensor*>&)>&
        infer_batch);

/// Converts a beamformed RF image (nz, nx) to IQ (nz, nx, 2) via per-column
/// analytic signal.
Tensor rf_image_to_iq(const Tensor& rf);

/// Encodes the matmul schedule of one Tiny-VBF forward pass over nz_total
/// stacked depth rows as an estimate-only cost probe (null data pointers).
/// Shared by the float and quantized beamformer adapters so both report
/// the same command structure to the device cost models.
void encode_tiny_vbf_probe(const TinyVbfConfig& config, std::int64_t nz_total,
                           device::CommandEncoder& encoder);

}  // namespace tvbf::models
