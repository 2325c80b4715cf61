#include "models/tiny_vbf_engine.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/tensor_ops.hpp"

namespace tvbf::models {
namespace {

/// nn::LayerNorm's epsilon.
constexpr float kLayerNormEpsilon = 1e-5f;

/// Head `h`'s band [h * dk, (h + 1) * dk) of the trailing axis of a
/// (rows, np, d) tensor: the values nn::slice_last copies.
Tensor head_band(const Tensor& x, std::int64_t h, std::int64_t dk) {
  const std::int64_t d = x.dim(2);
  const std::int64_t n = x.dim(0) * x.dim(1);
  Tensor out({x.dim(0), x.dim(1), dk});
  for (std::int64_t r = 0; r < n; ++r)
    std::copy_n(x.raw() + r * d + h * dk, dk, out.raw() + r * dk);
  return out;
}

/// One tile's forward pass over the views, rounding through the hook.
class TileForward {
 public:
  TileForward(const TinyVbfConfig& config, const TinyVbfWeights& weights,
              const RoundingHook& hook)
      : config_(config), weights_(weights), hook_(hook) {}

  /// (rows, np, patch * nch), loaded -> (rows, np, patch * 2).
  Tensor operator()(const Tensor& x) const {
    const std::int64_t rows = x.dim(0);
    const std::int64_t np = config_.num_patches();
    const std::int64_t d = config_.d_model;
    Tensor h = dense(x, weights_.embed);
    round(RoundAt::kInter, h);
    // Positional embedding, added to every depth row of the flat view.
    h.reshape({rows, np * d});
    h = add_bias(h, *weights_.pos);
    round(RoundAt::kInter, h);
    h.reshape({rows, np, d});
    for (const TinyVbfWeights::Block& blk : weights_.blocks) {
      // Layer norm's mean, variance and rsqrt run unrounded (the
      // accelerator's wide non-linear unit); its output is an op result.
      Tensor n1 = layer_norm(h, *blk.ln1_gamma, *blk.ln1_beta,
                             kLayerNormEpsilon);
      round(RoundAt::kOp, n1);
      h = add(h, attention(n1, blk));
      round(RoundAt::kInter, h);
      Tensor n2 = layer_norm(h, *blk.ln2_gamma, *blk.ln2_beta,
                             kLayerNormEpsilon);
      round(RoundAt::kOp, n2);
      // relu keeps op results on their grid, so it needs no rounding.
      h = add(h, dense(relu(dense(n2, blk.fc1)), blk.fc2));
      round(RoundAt::kInter, h);
    }
    h = dense(relu(dense(h, weights_.dec1)), weights_.dec2);
    round(RoundAt::kInter, h);
    return h;
  }

 private:
  void round(RoundAt at, Tensor& t) const {
    if (hook_) hook_(at, t.raw(), t.size());
  }

  /// nn::Dense::forward: x W, then + b, each result at the op width.
  Tensor dense(const Tensor& x, const TinyVbfWeights::Dense& layer) const {
    Tensor y = batched_matmul(x, *layer.w);
    round(RoundAt::kOp, y);
    y = add_bias(y, *layer.b);
    round(RoundAt::kOp, y);
    return y;
  }

  /// nn::MultiHeadAttention::forward over one tile.
  Tensor attention(const Tensor& x, const TinyVbfWeights::Block& blk) const {
    const std::int64_t d = config_.d_model;
    const std::int64_t dk = d / config_.num_heads;
    const Tensor q = dense(x, blk.wq);
    const Tensor k = dense(x, blk.wk);
    const Tensor v = dense(x, blk.wv);
    const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(dk));
    Tensor heads({x.dim(0), x.dim(1), d});
    const std::int64_t n = x.dim(0) * x.dim(1);
    for (std::int64_t h = 0; h < config_.num_heads; ++h) {
      Tensor scores = batched_matmul(head_band(q, h, dk),
                                     transpose_last2(head_band(k, h, dk)));
      round(RoundAt::kOp, scores);
      scores = scale(scores, inv_sqrt_dk);
      round(RoundAt::kOp, scores);
      Tensor attn = softmax_last(scores);
      round(RoundAt::kSoftmax, attn);
      Tensor oh = batched_matmul(attn, head_band(v, h, dk));
      round(RoundAt::kOp, oh);
      // Concatenate the heads along the trailing axis.
      for (std::int64_t r = 0; r < n; ++r)
        std::copy_n(oh.raw() + r * dk, dk, heads.raw() + r * d + h * dk);
    }
    return dense(heads, blk.wo);
  }

  const TinyVbfConfig& config_;
  const TinyVbfWeights& weights_;
  const RoundingHook& hook_;
};

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
                    const Tensor& input, float input_scale,
                    const RoundingHook& rounding) {
  const Shape& s = input.shape();
  TVBF_REQUIRE(s.size() == 3 && s[1] == config.num_lateral &&
                   s[2] == config.in_channels,
               "Tiny-VBF configured for (nz, " +
                   std::to_string(config.num_lateral) + ", " +
                   std::to_string(config.in_channels) + ") input; got " +
                   to_string(s));
  TVBF_REQUIRE(static_cast<std::int64_t>(weights.blocks.size()) ==
                   config.num_blocks,
               "Tiny-VBF weights hold the wrong number of blocks");
  const std::int64_t nz = s[0];
  const std::int64_t row_in = config.num_lateral * config.in_channels;
  const std::int64_t row_out = config.num_lateral * 2;
  const TileForward forward(config, weights, rounding);
  Tensor out({nz, config.num_lateral, 2});
  Tensor tile;
  for (std::int64_t z0 = 0; z0 < nz; z0 += kVbfTileRows) {
    const std::int64_t rows = std::min(kVbfTileRows, nz - z0);
    if (tile.size() != rows * row_in)
      tile = Tensor({rows, config.num_patches(),
                     config.patch_size * config.in_channels});
    const float* src = input.raw() + z0 * row_in;
    float* dst = tile.raw();
    for (std::int64_t i = 0; i < rows * row_in; ++i)
      dst[i] = src[i] * input_scale;
    // Samples enter through the same path as the layer outputs.
    if (rounding) rounding(RoundAt::kInter, dst, tile.size());
    const Tensor y = forward(tile);
    std::copy_n(y.raw(), rows * row_out, out.raw() + z0 * row_out);
  }
  return out;
}

}  // namespace tvbf::models
