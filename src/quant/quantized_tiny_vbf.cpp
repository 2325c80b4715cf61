#include "quant/quantized_tiny_vbf.hpp"

#include <utility>

#include "models/neural_beamformer.hpp"

namespace tvbf::quant {
namespace {

Tensor maybe_quant_weights(const Tensor& w, const QuantScheme& s) {
  if (s.is_float) return w;
  Tensor q = w;
  quantize_weights_per_channel_inplace(q, s.weight_bits);
  return q;
}

/// Biases and layer-norm parameters are stored at the op (accumulator)
/// width, as in standard integer inference stacks (e.g. int8 weights with
/// int32 biases): they are few, but their error feeds every activation.
Tensor maybe_quant_affine(const Tensor& p, const QuantScheme& s) {
  if (s.is_float) return p;
  return quantized(p, weight_format_for(p, s.op_bits));
}

}  // namespace

QuantizedTinyVbf::QuantizedTinyVbf(const models::TinyVbf& model,
                                   QuantScheme scheme)
    : config_(model.config()), scheme_(std::move(scheme)) {
  if (!scheme_.is_float)
    formats_ = kernels::DatapathFormats{scheme_.op_format(),
                                        scheme_.inter_format(),
                                        scheme_.softmax_format()};
  auto grab = [&](const nn::Dense& d) {
    DenseW out;
    out.w = maybe_quant_weights(d.weight().value(), scheme_);
    out.b = maybe_quant_affine(d.bias().value(), scheme_);
    param_count_ += out.w.size() + out.b.size();
    return out;
  };
  embed_ = grab(model.embed());
  pos_ = maybe_quant_weights(model.positional().value(), scheme_);
  param_count_ += pos_.size();
  for (const auto& b : model.blocks()) {
    BlockW blk;
    blk.ln1_gamma = maybe_quant_affine(b->norm1().gamma().value(), scheme_);
    blk.ln1_beta = maybe_quant_affine(b->norm1().beta().value(), scheme_);
    blk.wq = grab(b->attention().wq());
    blk.wk = grab(b->attention().wk());
    blk.wv = grab(b->attention().wv());
    blk.wo = grab(b->attention().wo());
    blk.ln2_gamma = maybe_quant_affine(b->norm2().gamma().value(), scheme_);
    blk.ln2_beta = maybe_quant_affine(b->norm2().beta().value(), scheme_);
    blk.fc1 = grab(b->mlp_in());
    blk.fc2 = grab(b->mlp_out());
    param_count_ += blk.ln1_gamma.size() + blk.ln1_beta.size() +
                    blk.ln2_gamma.size() + blk.ln2_beta.size();
    blocks_.push_back(std::move(blk));
  }
  dec1_ = grab(model.decoder_in());
  dec2_ = grab(model.decoder_out());
}

models::TinyVbfWeights QuantizedTinyVbf::weights() const {
  const auto view = [](const DenseW& d) {
    return models::TinyVbfWeights::Dense{&d.w, &d.b};
  };
  models::TinyVbfWeights w;
  w.embed = view(embed_);
  w.pos = &pos_;
  for (const BlockW& b : blocks_)
    w.blocks.push_back({&b.ln1_gamma, &b.ln1_beta, view(b.wq), view(b.wk),
                        view(b.wv), view(b.wo), &b.ln2_gamma, &b.ln2_beta,
                        view(b.fc1), view(b.fc2)});
  w.dec1 = view(dec1_);
  w.dec2 = view(dec2_);
  return w;
}

Tensor QuantizedTinyVbf::infer(const Tensor& input, float input_scale) const {
  return models::run_tiny_vbf(config_, weights(), input, input_scale,
                              formats_);
}

Tensor QuantizedTinyVbf::infer(const Shape& shape,
                               const models::RowLoader& load) const {
  return models::run_tiny_vbf(config_, weights(), shape, load, formats_);
}

Tensor QuantizedTinyVbf::infer(const Shape& shape,
                               const models::RowLayout& layout,
                               const models::RowLoader& load) const {
  return models::run_tiny_vbf(config_, weights(), shape, layout, load,
                              formats_);
}

QuantizedVbfBeamformer::QuantizedVbfBeamformer(
    std::shared_ptr<const QuantizedTinyVbf> model)
    : model_(std::move(model)) {
  TVBF_REQUIRE(model_ != nullptr, "QuantizedVbfBeamformer needs a model");
}

std::string QuantizedVbfBeamformer::name() const {
  return "Tiny-VBF[" + model_->scheme().name + "]";
}

Tensor QuantizedVbfBeamformer::beamform(const us::TofCube& cube) const {
  return model_->infer(cube.real, models::input_scale(cube));
}

std::optional<Tensor> QuantizedVbfBeamformer::beamform_through(
    const us::TofPlan& plan, const us::Acquisition& acq) const {
  return models::infer_through(
      plan, acq,
      [this](const Shape& shape, const models::RowLayout& layout,
             const models::RowLoader& load) {
        return model_->infer(shape, layout, load);
      });
}

std::int64_t QuantizedTinyVbf::weight_storage_bits() const {
  const std::int64_t bits_per =
      scheme_.is_float ? 32 : scheme_.weight_bits;
  return param_count_ * bits_per;
}

}  // namespace tvbf::quant
