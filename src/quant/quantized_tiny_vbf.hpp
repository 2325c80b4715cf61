// Fixed-point inference of a trained Tiny-VBF under a QuantScheme.
//
// Runs the one Tiny-VBF inference engine (models/tiny_vbf_engine.hpp) over
// quantized copies of the weights, with a rounding hook that fake-quantizes
// every hardware result in place, mirroring the datapath of the
// accelerator (Figs 5-8): weights are stored quantized, every multiply/add
// result is rounded to the op width, softmax runs at its own (wider) width,
// and each layer writes its output BRAM buffer at the intermediate width.
// With QuantScheme::float_reference() there is no hook and the output is
// bit-identical to TinyVbf::infer.
#pragma once

#include <memory>
#include <vector>

#include "beamform/beamformer.hpp"
#include "models/tiny_vbf_engine.hpp"
#include "quant/scheme.hpp"

namespace tvbf::quant {

/// Quantized view over a trained Tiny-VBF model.
class QuantizedTinyVbf {
 public:
  /// Captures (and quantizes) the model's weights; the model must outlive
  /// nothing — weights are copied.
  QuantizedTinyVbf(const models::TinyVbf& model, QuantScheme scheme);

  /// Fixed-point forward pass: (nz, nx, nch) -> IQ (nz, nx, 2), every
  /// input element multiplied by `input_scale` before it is rounded (see
  /// models::run_tiny_vbf).
  Tensor infer(const Tensor& input, float input_scale = 1.0f) const;

  /// infer() over an input of `shape` that `load` fetches row range by row
  /// range, already scaled, in order as (nx, nch) rows or, given a layout,
  /// from pool workers in it (see models::run_tiny_vbf).
  Tensor infer(const Shape& shape, const models::RowLoader& load) const;
  Tensor infer(const Shape& shape, const models::RowLayout& layout,
               const models::RowLoader& load) const;

  const QuantScheme& scheme() const { return scheme_; }
  const models::TinyVbfConfig& config() const { return config_; }

  /// Total bits of quantized parameter storage (BRAM budget input).
  std::int64_t weight_storage_bits() const;

 private:
  struct DenseW {
    Tensor w;
    Tensor b;
  };
  struct BlockW {
    Tensor ln1_gamma, ln1_beta;
    DenseW wq, wk, wv, wo;
    Tensor ln2_gamma, ln2_beta;
    DenseW fc1, fc2;
  };

  /// Views of the stored weights for the engine.
  models::TinyVbfWeights weights() const;
  /// The engine hook that rounds to the scheme's formats (none for float).
  models::RoundingHook rounding() const;

  models::TinyVbfConfig config_;
  QuantScheme scheme_;
  DenseW embed_;
  Tensor pos_;
  std::vector<BlockW> blocks_;
  DenseW dec1_, dec2_;
  std::int64_t param_count_ = 0;
};

/// QuantizedTinyVbf through the common Beamformer interface, mirroring
/// models::TinyVbfBeamformer (same [-1, 1] cube normalization). A
/// bf::BatchedBeamformer only for perf/ (see that class).
class QuantizedVbfBeamformer : public bf::BatchedBeamformer {
 public:
  explicit QuantizedVbfBeamformer(std::shared_ptr<const QuantizedTinyVbf> model);

  std::string name() const override;
  Tensor beamform(const us::TofCube& cube) const override;
  /// Accepts plans that read RF directly (see models::infer_through).
  std::optional<Tensor> beamform_through(
      const us::TofPlan& plan, const us::Acquisition& acq) const override;

 private:
  std::shared_ptr<const QuantizedTinyVbf> model_;
};

}  // namespace tvbf::quant
