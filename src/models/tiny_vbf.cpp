#include "models/tiny_vbf.hpp"

#include "models/tiny_vbf_engine.hpp"

namespace tvbf::models {

void TinyVbfConfig::validate() const {
  TVBF_REQUIRE(in_channels > 0, "in_channels must be positive");
  TVBF_REQUIRE(num_lateral > 0, "num_lateral must be positive");
  TVBF_REQUIRE(patch_size > 0 && num_lateral % patch_size == 0,
               "num_lateral must be divisible by patch_size");
  TVBF_REQUIRE(d_model > 0 && num_heads > 0 && d_model % num_heads == 0,
               "d_model must be divisible by num_heads");
  TVBF_REQUIRE(mlp_hidden > 0 && decoder_hidden > 0 && num_blocks > 0,
               "hidden sizes and block count must be positive");
}

RowLayout RowLayout::dense(std::int64_t nx, std::int64_t nch) {
  RowLayout layout{nx * nch, 0, nch, {}};
  for (std::int64_t c = 0; c < nch; ++c) layout.channel_offset.push_back(c);
  return layout;
}

TinyVbfConfig TinyVbfConfig::paper() {
  return TinyVbfConfig{};  // defaults are the paper-scale values
}

TinyVbfConfig TinyVbfConfig::test(std::int64_t channels, std::int64_t lateral) {
  TinyVbfConfig c;
  c.in_channels = channels;
  c.num_lateral = lateral;
  c.patch_size = 4;
  c.d_model = 16;
  c.num_heads = 2;
  c.mlp_hidden = 32;
  c.num_blocks = 2;
  c.decoder_hidden = 32;
  return c;
}

TinyVbf::TinyVbf(TinyVbfConfig config, Rng& rng) : config_(config) {
  config_.validate();
  const std::int64_t patch_in = config_.patch_size * config_.in_channels;
  embed_ = std::make_unique<nn::Dense>(patch_in, config_.d_model, rng);
  // Positional embedding, stored flat so it can be added via add_bias on the
  // (nz, np * d_model) view of the sequence.
  Tensor pos({config_.num_patches() * config_.d_model});
  for (auto& v : pos.data()) v = static_cast<float>(rng.normal(0.0, 0.02));
  pos_ = nn::parameter(std::move(pos));
  for (std::int64_t b = 0; b < config_.num_blocks; ++b)
    blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        config_.d_model, config_.num_heads, config_.mlp_hidden, rng));
  dec1_ = std::make_unique<nn::Dense>(config_.d_model, config_.decoder_hidden,
                                      rng);
  dec2_ = std::make_unique<nn::Dense>(config_.decoder_hidden,
                                      config_.patch_size * 2, rng);
}

nn::Variable TinyVbf::forward(const nn::Variable& x) const {
  const auto& s = x.shape();
  TVBF_REQUIRE(s.size() == 3, "TinyVbf expects (nz, nx, nch) input");
  TVBF_REQUIRE(s[1] == config_.num_lateral && s[2] == config_.in_channels,
               "TinyVbf configured for nx=" + std::to_string(config_.num_lateral) +
                   ", nch=" + std::to_string(config_.in_channels) + "; got " +
                   to_string(s));
  const std::int64_t nz = s[0];
  const std::int64_t np = config_.num_patches();
  const std::int64_t d = config_.d_model;

  // (nz, nx, nch) -> (nz, np, patch * nch): lateral patches are contiguous.
  nn::Variable h = nn::reshape(
      x, {nz, np, config_.patch_size * config_.in_channels});
  h = embed_->forward(h);  // (nz, np, d)
  // Positional embedding added to every depth row.
  h = nn::reshape(h, {nz, np * d});
  h = nn::add_bias(h, pos_);
  h = nn::reshape(h, {nz, np, d});
  for (const auto& block : blocks_) h = block->forward(h);
  h = nn::relu(dec1_->forward(h));            // (nz, np, dec)
  h = dec2_->forward(h);                      // (nz, np, patch * 2)
  return nn::reshape(h, {nz, config_.num_lateral, 2});
}

Tensor TinyVbf::infer(const Tensor& input, float input_scale) const {
  return run_tiny_vbf(config_, weights_of(*this), input, input_scale);
}

Tensor TinyVbf::infer(const Shape& shape, const RowLoader& load) const {
  return run_tiny_vbf(config_, weights_of(*this), shape, load);
}

Tensor TinyVbf::infer(const Shape& shape, const RowLayout& layout,
                      const RowLoader& load) const {
  return run_tiny_vbf(config_, weights_of(*this), shape, layout, load);
}

std::vector<nn::Variable> TinyVbf::parameters() const {
  std::vector<nn::Variable> out = embed_->parameters();
  out.push_back(pos_);
  for (const auto& b : blocks_) {
    const auto p = b->parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  for (const auto* d : {dec1_.get(), dec2_.get()}) {
    const auto p = d->parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::int64_t TinyVbf::ops_per_frame(std::int64_t nz) const {
  TVBF_REQUIRE(nz > 0, "ops_per_frame needs nz > 0");
  const std::int64_t np = config_.num_patches();
  const std::int64_t d = config_.d_model;
  const std::int64_t dk = d / config_.num_heads;
  const std::int64_t patch_in = config_.patch_size * config_.in_channels;
  // 2 ops (mul + add) per MAC, per depth row.
  std::int64_t per_row = 0;
  per_row += 2 * np * patch_in * d;                       // patch embedding
  per_row += np * d;                                      // positional add
  std::int64_t block = 0;
  block += 4 * 2 * np * d * d;                            // Q, K, V, O proj
  block += config_.num_heads * 2 * np * np * dk * 2;      // scores + attn*V
  block += 5 * np * np * config_.num_heads;               // softmax (approx)
  block += 2 * (2 * np * d * config_.mlp_hidden);         // MLP dense pair
  block += 2 * (8 * np * d);                              // two layer norms
  per_row += config_.num_blocks * block;
  per_row += 2 * np * d * config_.decoder_hidden;         // decoder hidden
  per_row += 2 * np * config_.decoder_hidden * (config_.patch_size * 2);
  return per_row * nz;
}

}  // namespace tvbf::models
