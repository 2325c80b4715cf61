// Tiny-VBF: the paper's vision-transformer beamformer.
//
// ToF-corrected RF channel data (nz, nx, nch), normalized to [-1, 1], is
// split per depth row into np = nx / patch_size lateral patches. Each patch
// (patch_size * nch values) is embedded by a dense layer, a learned
// positional embedding is added, two transformer encoder blocks attend
// across the lateral patches, and a dense decoder reconstructs the
// IQ-demodulated beamformed image (nz, nx, 2).
//
// The paper does not publish layer dimensions; TinyVbfConfig::paper() is
// tuned so the op count lands at the reported ~0.34 GOPs/frame for a
// 368 x 128 frame with 128 channels (see EXPERIMENTS.md for measured
// values). All dimensions are configurable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "nn/modules.hpp"

namespace tvbf::models {

/// Writes depth rows [z0, z0 + rows) of a Tiny-VBF input, every element
/// already multiplied by the input scale, to out (see RowLayout).
using RowLoader =
    std::function<void(std::int64_t z0, std::int64_t rows, float* out)>;

/// Where a loaded depth row keeps its values: pixel ix, channel c at
/// row[origin + ix * pixel_step + channel_offset[c]], rows row_floats
/// apart. The embed reads its patches from there in place.
struct RowLayout {
  std::int64_t row_floats = 0;
  std::int64_t origin = 0;
  std::int64_t pixel_step = 0;
  std::vector<std::int64_t> channel_offset;
  static RowLayout dense(std::int64_t nx, std::int64_t nch);  ///< (nx, nch)
};

/// Architecture hyper-parameters of Tiny-VBF.
struct TinyVbfConfig {
  std::int64_t in_channels = 128;   ///< transducer channels (nch)
  std::int64_t num_lateral = 128;   ///< image columns (nx)
  std::int64_t patch_size = 4;      ///< lateral pixels per patch
  std::int64_t d_model = 16;        ///< embedding width
  std::int64_t num_heads = 2;       ///< attention heads
  std::int64_t mlp_hidden = 32;     ///< transformer MLP hidden width
  std::int64_t num_blocks = 2;      ///< encoder transformer blocks (paper: 2)
  std::int64_t decoder_hidden = 32; ///< decoder hidden width

  std::int64_t num_patches() const { return num_lateral / patch_size; }

  void validate() const;

  /// Paper-scale configuration (128 channels, 128 lateral pixels).
  static TinyVbfConfig paper();
  /// Reduced configuration for tests and fast benches.
  static TinyVbfConfig test(std::int64_t channels = 16,
                            std::int64_t lateral = 32);
};

/// The Tiny-VBF network.
class TinyVbf : public nn::Module {
 public:
  TinyVbf(TinyVbfConfig config, Rng& rng);

  /// Differentiable forward pass: x is a constant/leaf Variable of shape
  /// (nz, nx, nch); returns the IQ image (nz, nx, 2).
  nn::Variable forward(const nn::Variable& x) const;

  /// Inference over a raw tensor through the engine in tiny_vbf_engine.hpp
  /// (no autograd graph): bit-identical to forward() on the input with
  /// every element multiplied by `input_scale` (1 / max|x| normalizes a raw
  /// ToF cube without a copy).
  Tensor infer(const Tensor& input, float input_scale = 1.0f) const;

  /// infer() over an input of `shape` (nz, nx, nch) that `load` fetches
  /// row range by row range, already scaled: bit-identical to infer() on
  /// the tensor the loader's rows make up. Without a layout the rows are
  /// (nx, nch) and fetched in order on the calling thread; with one, pool
  /// workers may fetch disjoint ranges at once (see run_tiny_vbf).
  Tensor infer(const Shape& shape, const RowLoader& load) const;
  Tensor infer(const Shape& shape, const RowLayout& layout,
               const RowLoader& load) const;

  /// Batch-of-frames inference: stacks the per-frame inputs (nz_i, nx, nch)
  /// along the depth axis, runs one infer() over the stack, and splits the
  /// IQ output back per frame. Depth rows are independent in this
  /// architecture (attention runs across lateral patches within a row), so
  /// each result is bit-identical to infer() on that frame alone.
  std::vector<Tensor> infer_batch(
      const std::vector<const Tensor*>& inputs) const;

  std::vector<nn::Variable> parameters() const override;
  const TinyVbfConfig& config() const { return config_; }

  /// Multiply+add operation count for one frame of `nz` depth rows,
  /// counted as 2 ops per MAC (the GOPs/frame convention of the paper).
  std::int64_t ops_per_frame(std::int64_t nz) const;

  // Structured access for the quantized kernels / accelerator simulator.
  const nn::Dense& embed() const { return *embed_; }
  const nn::Variable& positional() const { return pos_; }
  const std::vector<std::unique_ptr<nn::TransformerBlock>>& blocks() const {
    return blocks_;
  }
  const nn::Dense& decoder_in() const { return *dec1_; }
  const nn::Dense& decoder_out() const { return *dec2_; }

 private:
  TinyVbfConfig config_;
  std::unique_ptr<nn::Dense> embed_;
  nn::Variable pos_;  // (np * d_model) learned positional embedding
  std::vector<std::unique_ptr<nn::TransformerBlock>> blocks_;
  std::unique_ptr<nn::Dense> dec1_, dec2_;
};

}  // namespace tvbf::models
