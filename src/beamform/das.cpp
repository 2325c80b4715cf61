#include "beamform/das.hpp"

#include <vector>

#include "common/parallel.hpp"
#include "dsp/hilbert.hpp"

namespace tvbf::bf {

namespace {
void check_cube(const us::TofCube& cube, const us::Probe& probe) {
  TVBF_REQUIRE(cube.real.rank() == 3, "DAS expects a (nz, nx, nch) cube");
  TVBF_REQUIRE(cube.channels() == probe.num_elements,
               "cube channel count does not match the probe");
}

/// The apodized channel sum of `cube`, per pixel in double and in channel
/// order: (nz, nx) beamformed RF for an RF cube, interleaved (nz, nx, 2) IQ
/// for an analytic one. The loop stays out of the kernels, which are
/// compiled with -mfma, where `acc += w * x` may fuse and round otherwise.
Tensor channel_sum(const us::TofCube& cube, const Apodization& apod) {
  const std::int64_t nz = cube.nz(), nx = cube.nx(), nch = cube.channels();
  const float* im = cube.is_analytic() ? cube.imag.raw() : nullptr;
  Tensor out = im != nullptr ? Tensor({nz, nx, 2}) : Tensor({nz, nx});
  float* dst = out.raw();
  parallel_for_each(0, static_cast<std::size_t>(nz), [&](std::size_t zi) {
    const auto iz = static_cast<std::int64_t>(zi);
    std::vector<float> w;
    for (std::int64_t ix = 0; ix < nx; ++ix) {
      apod.weights_into(cube.grid.x_at(ix), cube.grid.z_at(iz), w);
      const std::int64_t px = iz * nx + ix;
      const float* re = cube.real.raw() + px * nch;
      if (im == nullptr) {
        double acc = 0.0;
        for (std::int64_t e = 0; e < nch; ++e)
          acc += static_cast<double>(w[static_cast<std::size_t>(e)]) * re[e];
        dst[px] = static_cast<float>(acc);
        continue;
      }
      double acc_re = 0.0, acc_im = 0.0;
      for (std::int64_t e = 0; e < nch; ++e) {
        const auto we = static_cast<double>(w[static_cast<std::size_t>(e)]);
        acc_re += we * re[e];
        acc_im += we * im[px * nch + e];
      }
      dst[px * 2] = static_cast<float>(acc_re);
      dst[px * 2 + 1] = static_cast<float>(acc_im);
    }
  }, /*min_grain=*/4);
  return out;
}
}  // namespace

DasBeamformer::DasBeamformer(const us::Probe& probe, ApodizationParams apod)
    : probe_(probe), apod_params_(apod) {
  probe_.validate();
}

Tensor DasBeamformer::beamform_rf(const us::TofCube& cube) const {
  check_cube(cube, probe_);
  TVBF_REQUIRE(!cube.is_analytic(),
               "beamform_rf expects an RF (non-analytic) cube");
  return channel_sum(cube, Apodization(probe_, apod_params_));
}

Tensor DasBeamformer::beamform(const us::TofCube& cube) const {
  check_cube(cube, probe_);
  if (!cube.is_analytic()) {
    // Beamformed RF -> analytic signal per image column (paper: "processed
    // with the Hilbert Transform to obtain the final B-mode image").
    return dsp::analytic_columns(beamform_rf(cube));
  }
  // Analytic input sums straight into the interleaved (nz, nx, 2) IQ image.
  return channel_sum(cube, Apodization(probe_, apod_params_));
}

}  // namespace tvbf::bf
