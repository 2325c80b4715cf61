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

/// One tile's forward pass over the views, rounding through the hook, on
/// buffers allocated once for up to `max_rows` depth rows and reused by
/// every tile. With n = rows * np patch rows and d = d_model:
///   in_           one slice of the tile's scaled input, (slice_rows * np,
///                 patch * nch)
///   h_            (n, d)            the residual stream
///   x_            (n, d)            layer-norm output, then the concatenated
///                                   heads, then the MLP output
///   q_, k_, v_    (n, d)            projections; q_ then takes W_o's output
///   wide_         one head's scores (rows, np, np), softmaxed in place;
///                 later the MLP and decoder hidden layers
class TileForward {
 public:
  TileForward(const TinyVbfConfig& config, const TinyVbfWeights& weights,
              const RoundingHook& hook, std::int64_t max_rows)
      : config_(config), weights_(weights), hook_(hook) {
    const std::int64_t np = config.num_patches();
    const std::int64_t n = max_rows * np;
    const std::int64_t row_bytes = config.num_lateral * config.in_channels *
                                   static_cast<std::int64_t>(sizeof(float));
    slice_rows_ = std::max<std::int64_t>(
        1, std::min(max_rows, kVbfSliceBytes / row_bytes));
    const std::int64_t in =
        slice_rows_ * config.num_lateral * config.in_channels;
    const std::int64_t d = n * config.d_model;
    const std::int64_t wide =
        std::max({max_rows * np * np, n * config.mlp_hidden,
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
  }

  /// Runs the tile of `rows` depth rows from z0, loading and embedding its
  /// input slice by slice, and writes its IQ rows, (rows, np, patch * 2),
  /// to out.
  void operator()(std::int64_t z0, std::int64_t rows, const RowLoader& load,
                  float* out) {
    const std::int64_t np = config_.num_patches();
    const std::int64_t d = config_.d_model;
    const std::int64_t n = rows * np;
    const std::int64_t row_in = config_.num_lateral * config_.in_channels;
    for (std::int64_t r0 = 0; r0 < rows; r0 += slice_rows_) {
      const std::int64_t slice = std::min(slice_rows_, rows - r0);
      load(z0 + r0, slice, in_);
      // Samples enter through the same path as the layer outputs.
      round(RoundAt::kInter, in_, slice * row_in);
      dense(in_, slice * np, weights_.embed, h_ + r0 * np * d);
    }
    round(RoundAt::kInter, h_, n * d);
    // Positional embedding, added to every depth row.
    const float* pos = weights_.pos->raw();
    for (std::int64_t r = 0; r < rows; ++r) {
      float* hr = h_ + r * np * d;
      for (std::int64_t i = 0; i < np * d; ++i) hr[i] += pos[i];
    }
    round(RoundAt::kInter, h_, n * d);
    for (const TinyVbfWeights::Block& blk : weights_.blocks) {
      // Layer norm's mean, variance and rsqrt run unrounded (the
      // accelerator's wide non-linear unit); its output is an op result.
      layer_norm(blk.ln1_gamma, blk.ln1_beta, n);
      attention(rows, blk);
      dense(x_, n, blk.wo, q_);
      add_residual(q_, n);
      layer_norm(blk.ln2_gamma, blk.ln2_beta, n);
      dense(x_, n, blk.fc1, wide_);
      // relu keeps op results on their grid, so it needs no rounding.
      relu(wide_, n * config_.mlp_hidden);
      dense(wide_, n, blk.fc2, x_);
      add_residual(x_, n);
    }
    dense(h_, n, weights_.dec1, wide_);
    relu(wide_, n * config_.decoder_hidden);
    dense(wide_, n, weights_.dec2, out);
    round(RoundAt::kInter, out, n * weights_.dec2.w->dim(1));
  }

 private:
  void round(RoundAt at, float* x, std::int64_t n) const {
    if (hook_) hook_(at, x, n);
  }

  /// nn::Dense::forward over n rows: y = x W, then + b, each result at the
  /// op width.
  void dense(const float* x, std::int64_t n,
             const TinyVbfWeights::Dense& layer, float* y) {
    const std::int64_t in = layer.w->dim(0);
    const std::int64_t out = layer.w->dim(1);
    kernels::gemm(x, layer.w->raw(), y, n, in, out);
    round(RoundAt::kOp, y, n * out);
    const float* b = layer.b->raw();
    for (std::int64_t r = 0; r < n; ++r)
      for (std::int64_t j = 0; j < out; ++j) y[r * out + j] += b[j];
    round(RoundAt::kOp, y, n * out);
  }

  /// x_ = layer_norm(h_), an op result.
  void layer_norm(const Tensor* gamma, const Tensor* beta, std::int64_t n) {
    kernels::layer_norm_rows(h_, x_, n, config_.d_model, gamma->raw(),
                             beta->raw(), kLayerNormEpsilon, nullptr,
                             nullptr);
    round(RoundAt::kOp, x_, n * config_.d_model);
  }

  /// h_ += y, at the intermediate width.
  void add_residual(const float* y, std::int64_t n) {
    const std::int64_t size = n * config_.d_model;
    for (std::int64_t i = 0; i < size; ++i) h_[i] += y[i];
    round(RoundAt::kInter, h_, size);
  }

  static void relu(float* x, std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }

  /// nn::MultiHeadAttention::forward up to W_o, over the layer-norm output
  /// in x_: the heads' outputs are concatenated into x_. Head bands of
  /// q_, k_ and v_ are read in place through GEMM strides.
  void attention(std::int64_t rows, const TinyVbfWeights::Block& blk) {
    const std::int64_t np = config_.num_patches();
    const std::int64_t d = config_.d_model;
    const std::int64_t dk = d / config_.num_heads;
    const std::int64_t n = rows * np;
    dense(x_, n, blk.wq, q_);
    dense(x_, n, blk.wk, k_);
    dense(x_, n, blk.wv, v_);
    const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(dk));
    float* scores = wide_;
    const std::int64_t size = rows * np * np;
    for (std::int64_t h = 0; h < config_.num_heads; ++h) {
      const std::int64_t band = h * dk;
      // scores = Q_h K_h^T, one (np, np) block per depth row.
      per_row(rows, [&](std::int64_t r) {
        const std::int64_t at = r * np * d + band;
        kernels::gemm_strided(q_ + at, d, k_ + at, /*b_rs=*/1, /*b_cs=*/d,
                              scores + r * np * np, np, np, dk, np);
      });
      round(RoundAt::kOp, scores, size);
      for (std::int64_t i = 0; i < size; ++i) scores[i] *= inv_sqrt_dk;
      round(RoundAt::kOp, scores, size);
      kernels::softmax_rows(scores, scores, n, np);
      round(RoundAt::kSoftmax, scores, size);
      // Head h's output, attn V_h, into its band of x_.
      per_row(rows, [&](std::int64_t r) {
        const std::int64_t at = r * np * d + band;
        kernels::gemm_strided(scores + r * np * np, np, v_ + at, d, 1,
                              x_ + at, d, np, np, dk);
      });
    }
    // Every head's A.V result is rounded once, at the op width.
    round(RoundAt::kOp, x_, n * d);
  }

  /// fn(r) for every depth row r of the tile, across the pool.
  static void per_row(std::int64_t rows,
                      const std::function<void(std::int64_t)>& fn) {
    parallel_for(
        0, static_cast<std::size_t>(rows),
        [&](std::size_t rb, std::size_t re) {
          for (std::size_t r = rb; r < re; ++r)
            fn(static_cast<std::int64_t>(r));
        },
        /*min_grain=*/1);
  }

  const TinyVbfConfig& config_;
  const TinyVbfWeights& weights_;
  const RoundingHook& hook_;
  std::int64_t slice_rows_ = 1;  ///< depth rows per input slice
  std::unique_ptr<float[]> buffer_;
  float* in_ = nullptr;
  float* h_ = nullptr;
  float* x_ = nullptr;
  float* q_ = nullptr;
  float* k_ = nullptr;
  float* v_ = nullptr;
  float* wide_ = nullptr;
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
                    const Shape& shape, const RowLoader& load,
                    const RoundingHook& rounding) {
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
  TileForward forward(config, weights, rounding, std::min(kVbfTileRows, nz));
  Tensor out({nz, config.num_lateral, 2});
  for (std::int64_t z0 = 0; z0 < nz; z0 += kVbfTileRows)
    forward(z0, std::min(kVbfTileRows, nz - z0), load,
            out.raw() + z0 * row_out);
  return out;
}

Tensor run_tiny_vbf(const TinyVbfConfig& config, const TinyVbfWeights& weights,
                    const Tensor& input, float input_scale,
                    const RoundingHook& rounding) {
  const std::int64_t row_in = config.num_lateral * config.in_channels;
  return run_tiny_vbf(
      config, weights, input.shape(),
      [&](std::int64_t z0, std::int64_t rows, float* out) {
        const float* src = input.raw() + z0 * row_in;
        for (std::int64_t i = 0; i < rows * row_in; ++i)
          out[i] = src[i] * input_scale;
      },
      rounding);
}

}  // namespace tvbf::models
