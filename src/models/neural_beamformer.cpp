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
