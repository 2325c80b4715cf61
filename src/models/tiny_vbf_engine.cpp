#include "models/tiny_vbf_engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/parallel.hpp"
#include "kernels/gemm.hpp"
#include "kernels/reduce.hpp"

namespace tvbf::models {
namespace {

/// nn::LayerNorm's epsilon.
constexpr float kLayerNormEpsilon = 1e-5f;

/// One tile's forward pass over the views, rounding to the formats if any,
/// on buffers allocated once for up to `max_rows` depth rows and reused by
/// every tile. With n = rows * np patch rows and d = d_model:
///   in_           one slice of the tile's scaled input in the loader's
///                 layout; patch row i's column p at a_rows_[i][a_cols_[p]]
///   h_            (n, d)            the residual stream
///   x_            (n, d)            layer-norm output, then the concatenated
///                                   heads, then the MLP output
///   q_, k_, v_    (n, d)            projections; q_ then takes W_o's output
///   wide_         each depth row's attention block; later the MLP and
///                 decoder hidden layers
class TileForward {
 public:
  /// worker_loads: pool workers load their own rows of a slice.
  TileForward(const TinyVbfConfig& config, const TinyVbfWeights& weights,
              const std::optional<kernels::DatapathFormats>& formats,
              std::int64_t max_rows, const RowLayout& layout,
              bool worker_loads)
      : config_(config), weights_(weights), formats_(formats),
        op_(formats ? std::optional(formats->op) : std::nullopt),
        inter_(formats ? std::optional(formats->inter) : std::nullopt),
        row_floats_(layout.row_floats), worker_loads_(worker_loads) {
    const std::int64_t np = config.num_patches();
    const std::int64_t n = max_rows * np;
    slice_rows_ = std::max<std::int64_t>(
        1, std::min(max_rows, kVbfSliceBytes / (row_floats_ * 4)));
    const std::int64_t in = slice_rows_ * row_floats_;
    const std::int64_t d = n * config.d_model;
    block_ = kernels::attention_block_floats(
        np, config.d_model / config.num_heads);
    const std::int64_t wide =
        std::max({max_rows * block_, n * config.mlp_hidden,
                  n * config.decoder_hidden});
    buffer_ = std::make_unique_for_overwrite<float[]>(
        static_cast<std::size_t>(in + 5 * d + wide));
    in_ = buffer_.get();
    h_ = in_ + in;
    x_ = h_ + d;
    q_ = x_ + d;
    k_ = q_ + d;
    v_ = k_ + d;
    wide_ = v_ + d;
    // Patch P of slice row r starts at pixel P * patch; its column
    // dx * nch + c is pixel dx on, channel c.
    const std::int64_t patch = config.patch_size;
    for (std::int64_t r = 0; r < slice_rows_; ++r)
      for (std::int64_t p = 0; p < np; ++p)
        a_rows_.push_back(in_ + r * row_floats_ + layout.origin +
                          p * patch * layout.pixel_step);
    for (std::int64_t dx = 0; dx < patch; ++dx)
      for (const std::int64_t offset : layout.channel_offset)
        a_cols_.push_back(dx * layout.pixel_step + offset);
  }

  /// Runs the tile of `rows` depth rows from z0, loading and embedding its
  /// input slice by slice, and writes its IQ rows, (rows, np, patch * 2),
  /// to out.
  void operator()(std::int64_t z0, std::int64_t rows, const RowLoader& load,
                  float* out) {
    const std::int64_t np = config_.num_patches();
    const std::int64_t d = config_.d_model;
    const std::int64_t n = rows * np;
    const std::int64_t patch_in = config_.patch_size * config_.in_channels;
    const auto load_rows = [&](std::int64_t r, std::int64_t count) {
      float* in = in_ + (r % slice_rows_) * row_floats_;
      load(z0 + r, count, in);
      round(inter_, in, count * row_floats_);  // as layer outputs
    };
    for (std::int64_t r0 = 0; r0 < rows; r0 += slice_rows_) {
      const std::int64_t slice = std::min(slice_rows_, rows - r0);
      if (!worker_loads_) load_rows(r0, slice);
      // One fork-join per slice, in which each worker embeds its rows.
      float* h = h_ + r0 * np * d;
      parallel_for(
          0, static_cast<std::size_t>(slice),
          [&](std::size_t b, std::size_t e) {
            const auto rb = static_cast<std::int64_t>(b);
            const auto re = static_cast<std::int64_t>(e);
            if (worker_loads_) load_rows(r0 + rb, re - rb);
            kernels::gemm_indirect_rows(
                a_rows_.data(), a_cols_.data(), weights_.embed.w->raw(), h,
                patch_in, d, rb * np, re * np, epilogue(weights_.embed, false));
          },
          /*min_grain=*/1);
    }
    round(inter_, h_, n * d);
    // Positional embedding, added to every depth row.
    const float* pos = weights_.pos->raw();
    for (std::int64_t r = 0; r < rows; ++r) {
      float* hr = h_ + r * np * d;
      for (std::int64_t i = 0; i < np * d; ++i) hr[i] += pos[i];
    }
    round(inter_, h_, n * d);
    for (const TinyVbfWeights::Block& blk : weights_.blocks) {
      // Layer norm's mean, variance and rsqrt run unrounded (the
      // accelerator's wide non-linear unit); its output is an op result.
      layer_norm(blk.ln1_gamma, blk.ln1_beta, n);
      attention(rows, blk);
      dense(x_, n, blk.wo, q_);
      add_residual(q_, n);
      layer_norm(blk.ln2_gamma, blk.ln2_beta, n);
      // relu keeps op results on their grid, so it needs no rounding.
      dense(x_, n, blk.fc1, wide_, /*relu=*/true);
      dense(wide_, n, blk.fc2, x_);
      add_residual(x_, n);
    }
    dense(h_, n, weights_.dec1, wide_, /*relu=*/true);
    dense(wide_, n, weights_.dec2, out);
    round(inter_, out, n * weights_.dec2.w->dim(1));
  }

 private:
  /// Rounds x[0, n) to fmt on the fixed-point datapath.
  static void round(const std::optional<kernels::FixedFormat>& fmt, float* x,
                    std::int64_t n) {
    if (fmt) kernels::quantize_inplace(x, n, *fmt);
  }

  /// nn::Dense::forward, then ReLU if asked: y = x W + b through the GEMM
  /// and its epilogue, which on the fixed-point datapath rounds x W and
  /// then + b at the op width before the ReLU.
  kernels::Epilogue epilogue(const TinyVbfWeights::Dense& layer,
                             bool relu) const {
    return {layer.b->raw(), relu, op_};
  }
  void dense(const float* x, std::int64_t n,
             const TinyVbfWeights::Dense& layer, float* y,
             bool relu = false) const {
    kernels::gemm(x, layer.w->raw(), y, n, layer.w->dim(0), layer.w->dim(1),
                  epilogue(layer, relu));
  }

  /// x_ = layer_norm(h_), an op result.
  void layer_norm(const Tensor* gamma, const Tensor* beta, std::int64_t n) {
    kernels::layer_norm_rows(h_, x_, n, config_.d_model, gamma->raw(),
                             beta->raw(), kLayerNormEpsilon, nullptr,
                             nullptr);
    round(op_, x_, n * config_.d_model);
  }

  /// h_ += y, at the intermediate width.
  void add_residual(const float* y, std::int64_t n) {
    const std::int64_t size = n * config_.d_model;
    for (std::int64_t i = 0; i < size; ++i) h_[i] += y[i];
    round(inter_, h_, size);
  }

  /// nn::MultiHeadAttention::forward up to W_o, over the layer-norm output
  /// in x_: the heads' outputs are concatenated into x_. Each (depth row,
  /// head) runs as one kernels::attention_block over the head bands of q_,
  /// k_ and v_, in that row's block of wide_, which rounds the scores, the
  /// scaled scores and the head's output at the op width and the softmax
  /// at its own.
  void attention(std::int64_t rows, const TinyVbfWeights::Block& blk) {
    const std::int64_t np = config_.num_patches();
    const std::int64_t d = config_.d_model;
    const std::int64_t dk = d / config_.num_heads;
    const std::int64_t n = rows * np;
    dense(x_, n, blk.wq, q_);
    dense(x_, n, blk.wk, k_);
    dense(x_, n, blk.wv, v_);
    const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(dk));
    parallel_for(
        0, static_cast<std::size_t>(rows),
        [&](std::size_t rb, std::size_t re) {
          for (auto r = static_cast<std::int64_t>(rb);
               r < static_cast<std::int64_t>(re); ++r)
            for (std::int64_t h = 0; h < config_.num_heads; ++h) {
              const std::int64_t at = r * np * d + h * dk;
              kernels::attention_block(q_ + at, k_ + at, v_ + at, d,
                                       x_ + at, d, np, dk, inv_sqrt_dk,
                                       wide_ + r * block_, formats_);
            }
        },
        /*min_grain=*/1);
  }

  const TinyVbfConfig& config_;
  const TinyVbfWeights& weights_;
  const std::optional<kernels::DatapathFormats>& formats_;
  std::optional<kernels::FixedFormat> op_, inter_;  ///< formats_' widths
  std::int64_t row_floats_ = 0;  ///< floats per loaded depth row
  bool worker_loads_ = false;
  std::int64_t slice_rows_ = 1;  ///< depth rows per input slice
  std::int64_t block_ = 0;       ///< floats of one attention block
  std::unique_ptr<float[]> buffer_;
  std::vector<const float*> a_rows_;
  std::vector<std::int64_t> a_cols_;
  float* in_ = nullptr;
  float* h_ = nullptr;
  float* x_ = nullptr;
  float* q_ = nullptr;
  float* k_ = nullptr;
  float* v_ = nullptr;
  float* wide_ = nullptr;
};

/// run_tiny_vbf over rows in `layout`, loaded by the pool's workers or
/// (worker_loads false) slice by slice on the calling thread.
Tensor run(const TinyVbfConfig& config, const TinyVbfWeights& weights,
           const Shape& shape, const RowLayout& layout, const RowLoader& load,
           const std::optional<kernels::DatapathFormats>& formats,
           bool worker_loads) {
  TVBF_REQUIRE(shape.size() == 3 && shape[1] == config.num_lateral &&
                   shape[2] == config.in_channels,
               "Tiny-VBF configured for (nz, " +
                   std::to_string(config.num_lateral) + ", " +
                   std::to_string(config.in_channels) + ") input; got " +
                   to_string(shape));
  TVBF_REQUIRE(static_cast<std::int64_t>(weights.blocks.size()) ==
                   config.num_blocks,
               "Tiny-VBF weights hold the wrong number of blocks");
  const std::int64_t nz = shape[0];
  const std::int64_t row_out = config.num_lateral * 2;
  bool fits = static_cast<std::int64_t>(layout.channel_offset.size()) ==
              config.in_channels;
  for (const std::int64_t offset : layout.channel_offset)  // first, last pixel
    for (const std::int64_t ix : {std::int64_t{0}, config.num_lateral - 1}) {
      const std::int64_t at = layout.origin + ix * layout.pixel_step + offset;
      fits = fits && at >= 0 && at < layout.row_floats;
    }
  TVBF_REQUIRE(fits, "Tiny-VBF row layout does not match the input");
  TileForward forward(config, weights, formats, std::min(kVbfTileRows, nz),
                      layout, worker_loads);
  Tensor out({nz, config.num_lateral, 2});
  for (std::int64_t z0 = 0; z0 < nz; z0 += kVbfTileRows)
    forward(z0, std::min(kVbfTileRows, nz - z0), load,
            out.raw() + z0 * row_out);
  return out;
}

}  // namespace

TinyVbfWeights weights_of(const TinyVbf& model) {
  const auto dense = [](const nn::Dense& layer) {
    return TinyVbfWeights::Dense{&layer.weight().value(),
                                 &layer.bias().value()};
  };
  TinyVbfWeights w;
  w.embed = dense(model.embed());
  w.pos = &model.positional().value();
  for (const auto& b : model.blocks()) {
    const nn::MultiHeadAttention& mha = b->attention();
    w.blocks.push_back({&b->norm1().gamma().value(),
                        &b->norm1().beta().value(), dense(mha.wq()),
                        dense(mha.wk()), dense(mha.wv()), dense(mha.wo()),
                        &b->norm2().gamma().value(),
                        &b->norm2().beta().value(), dense(b->mlp_in()),
                        dense(b->mlp_out())});
  }
  w.dec1 = dense(model.decoder_in());
  w.dec2 = dense(model.decoder_out());
  return w;
}

Tensor run_tiny_vbf(const TinyVbfConfig& config, const TinyVbfWeights& weights,
                    const Shape& shape, const RowLoader& load,
                    const std::optional<kernels::DatapathFormats>& formats) {
  return run(config, weights, shape,
             RowLayout::dense(config.num_lateral, config.in_channels), load,
             formats, /*worker_loads=*/false);
}

Tensor run_tiny_vbf(const TinyVbfConfig& config, const TinyVbfWeights& weights,
                    const Shape& shape, const RowLayout& layout,
                    const RowLoader& load,
                    const std::optional<kernels::DatapathFormats>& formats) {
  return run(config, weights, shape, layout, load, formats,
             /*worker_loads=*/true);
}

Tensor run_tiny_vbf(const TinyVbfConfig& config, const TinyVbfWeights& weights,
                    const Tensor& input, float input_scale,
                    const std::optional<kernels::DatapathFormats>& formats) {
  const std::int64_t row_in = config.num_lateral * config.in_channels;
  return run_tiny_vbf(
      config, weights, input.shape(),
      RowLayout::dense(config.num_lateral, config.in_channels),
      [&](std::int64_t z0, std::int64_t rows, float* out) {
        const float* src = input.raw() + z0 * row_in;
        for (std::int64_t i = 0; i < rows * row_in; ++i)
          out[i] = src[i] * input_scale;
      },
      formats);
}

}  // namespace tvbf::models
