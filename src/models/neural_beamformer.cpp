#include "models/neural_beamformer.hpp"

#include "dsp/hilbert.hpp"
#include "kernels/tof_gather.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::models {

namespace {

/// 1 / peak, or 1 for an all-zero input.
float scale_for_peak(float peak) { return peak > 0.0f ? 1.0f / peak : 1.0f; }

}  // namespace

float input_scale(const us::TofCube& cube) {
  TVBF_REQUIRE(cube.real.rank() == 3, "cube holds no data");
  return scale_for_peak(max_abs(cube.real));
}

std::optional<Tensor> infer_through(
    const us::TofPlan& plan, const us::Acquisition& acq,
    const std::function<Tensor(const Shape&, const RowLayout&,
                               const RowLoader&)>& infer) {
  if (!plan.reads_rf()) return std::nullopt;
  const float scale = scale_for_peak(plan.peak(acq));
  const us::TofPlanKey& key = plan.key();
  const std::int64_t nx = key.grid.nx, nch = key.num_elements;
  const std::int64_t origin = kernels::slot_offset(nx, 0, 0);
  RowLayout slots{kernels::slot_row_floats(nx, nch), origin,
                  kernels::slot_offset(nx, 1, 0) - origin, {}};
  for (std::int64_t c = 0; c < nch; ++c)
    slots.channel_offset.push_back(kernels::slot_offset(nx, 0, c) - origin);
  return infer({key.grid.nz, nx, nch}, slots,
               [&](std::int64_t z0, std::int64_t rows, float* out) {
                 plan.slot_rows(acq, z0, rows, scale, out);
               });
}

Tensor normalized_input(const us::TofCube& cube) {
  const float inv = input_scale(cube);
  Tensor in = cube.real;
  for (auto& v : in.data()) v *= inv;
  return in;
}

Tensor rf_image_to_iq(const Tensor& rf) {
  return dsp::analytic_columns(rf);
}

std::vector<Tensor> stacked_forward(
    const std::vector<const Tensor*>& inputs,
    const std::function<Tensor(const Tensor&)>& infer) {
  TVBF_REQUIRE(!inputs.empty(), "infer_batch needs at least one frame");
  TVBF_REQUIRE(inputs.front() != nullptr, "infer_batch got a null frame");
  if (inputs.size() == 1) return {infer(*inputs.front())};
  const Tensor stacked = concat0_all(inputs);
  const Tensor out = infer(stacked);
  std::vector<Tensor> results;
  results.reserve(inputs.size());
  std::int64_t row = 0;
  for (const Tensor* in : inputs) {
    const std::int64_t nz = in->dim(0);
    results.push_back(slice0(out, row, row + nz));
    row += nz;
  }
  return results;
}

std::vector<Tensor> beamform_batch_normalized(
    const std::vector<const us::TofCube*>& cubes,
    const std::function<std::vector<Tensor>(const std::vector<const Tensor*>&)>&
        infer_batch) {
  std::vector<Tensor> normalized;
  normalized.reserve(cubes.size());
  for (const us::TofCube* cube : cubes) {
    TVBF_REQUIRE(cube != nullptr, "beamform_batch got a null cube");
    normalized.push_back(normalized_input(*cube));
  }
  std::vector<const Tensor*> inputs;
  inputs.reserve(normalized.size());
  for (const Tensor& n : normalized) inputs.push_back(&n);
  return infer_batch(inputs);
}

TinyVbfBeamformer::TinyVbfBeamformer(std::shared_ptr<const TinyVbf> model)
    : model_(std::move(model)) {
  TVBF_REQUIRE(model_ != nullptr, "TinyVbfBeamformer needs a model");
}

Tensor TinyVbfBeamformer::beamform(const us::TofCube& cube) const {
  return model_->infer(cube.real, input_scale(cube));
}

std::optional<Tensor> TinyVbfBeamformer::beamform_through(
    const us::TofPlan& plan, const us::Acquisition& acq) const {
  return infer_through(plan, acq,
                       [this](const Shape& shape, const RowLayout& layout,
                              const RowLoader& load) {
                         return model_->infer(shape, layout, load);
                       });
}

std::vector<Tensor> TinyVbfBeamformer::beamform_batch(
    const std::vector<const us::TofCube*>& cubes) const {
  return beamform_batch_normalized(
      cubes, [this](const std::vector<const Tensor*>& inputs) {
        return model_->infer_batch(inputs);
      });
}

bool TinyVbfBeamformer::encode_cost_probe(device::CommandEncoder& encoder,
                                          std::int64_t nz_total) const {
  encode_tiny_vbf_probe(model_->config(), nz_total, encoder);
  return true;
}

void encode_tiny_vbf_probe(const TinyVbfConfig& config, std::int64_t nz_total,
                           device::CommandEncoder& encoder) {
  TVBF_REQUIRE(nz_total > 0, "cost probe needs a positive row count");
  const std::int64_t nz = nz_total;
  const std::int64_t np = config.num_patches();
  const std::int64_t d = config.d_model;
  const std::int64_t dk = d / config.num_heads;
  const std::int64_t pin = config.patch_size * config.in_channels;
  // The matmul schedule of one stacked forward pass (mirrors
  // accel::AcceleratorSim::run_tiny_vbf, which prices the same network):
  // embed, per block Q/K/V + scores + head outputs + output projection +
  // the two MLP matmuls, then the two decoder matmuls. Elementwise /
  // softmax / layer-norm stages are negligible against these and omitted.
  encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np, pin, d);
  for (std::int64_t b = 0; b < config.num_blocks; ++b) {
    for (int proj = 0; proj < 3; ++proj)  // wq, wk, wv
      encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np, d, d);
    encoder.batched_gemm(nullptr, nullptr, nullptr, nz * config.num_heads,
                         np, dk, np, /*transpose_b=*/true);  // scores
    encoder.batched_gemm(nullptr, nullptr, nullptr, nz * config.num_heads,
                         np, np, dk);  // attn . V
    encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np, d, d);  // wo
    encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np, d,
                         config.mlp_hidden);  // fc1
    encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np,
                         config.mlp_hidden, d);  // fc2
  }
  encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np, d,
                       config.decoder_hidden);  // dec1
  encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np,
                       config.decoder_hidden, config.patch_size * 2);  // dec2
}

TinyCnnBeamformer::TinyCnnBeamformer(std::shared_ptr<const TinyCnn> model)
    : model_(std::move(model)) {
  TVBF_REQUIRE(model_ != nullptr, "TinyCnnBeamformer needs a model");
}

Tensor TinyCnnBeamformer::beamform(const us::TofCube& cube) const {
  return rf_image_to_iq(model_->infer(normalized_input(cube)));
}

FcnnBeamformer::FcnnBeamformer(std::shared_ptr<const Fcnn> model)
    : model_(std::move(model)) {
  TVBF_REQUIRE(model_ != nullptr, "FcnnBeamformer needs a model");
}

Tensor FcnnBeamformer::beamform(const us::TofCube& cube) const {
  return rf_image_to_iq(model_->infer(normalized_input(cube)));
}

}  // namespace tvbf::models
