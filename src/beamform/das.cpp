#include "beamform/das.hpp"

#include <vector>

#include "device/device.hpp"
#include "dsp/hilbert.hpp"

namespace tvbf::bf {

namespace {
void check_cube(const us::TofCube& cube, const us::Probe& probe) {
  TVBF_REQUIRE(cube.real.rank() == 3, "DAS expects a (nz, nx, nch) cube");
  TVBF_REQUIRE(cube.channels() == probe.num_elements,
               "cube channel count does not match the probe");
}

/// Bound apodization+grid context for DasApplyCmd's weight callback: the
/// device layer owns the weighted-sum loop, the pixel-geometry weights stay
/// here in beamform/.
struct WeightContext {
  const Apodization& apod;
  const us::ImagingGrid& grid;

  static void fill(const void* ctx, std::int64_t iz, std::int64_t ix,
                   std::vector<float>& w) {
    const auto& self = *static_cast<const WeightContext*>(ctx);
    self.apod.weights_into(self.grid.x_at(ix), self.grid.z_at(iz), w);
  }
};
}  // namespace

DasBeamformer::DasBeamformer(const us::Probe& probe, ApodizationParams apod)
    : probe_(probe), apod_params_(apod) {
  probe_.validate();
}

Tensor DasBeamformer::beamform_rf(const us::TofCube& cube) const {
  check_cube(cube, probe_);
  TVBF_REQUIRE(!cube.is_analytic(),
               "beamform_rf expects an RF (non-analytic) cube");
  const std::int64_t nz = cube.nz(), nx = cube.nx(), nch = cube.channels();
  const Apodization apod(probe_, apod_params_);
  const WeightContext ctx{apod, cube.grid};

  Tensor sum_re({nz, nx});
  device::cpu().submit(
      device::CommandEncoder()
          .encode(device::DasApplyCmd{cube.real.raw(), nullptr, sum_re.raw(),
                                      nz, nx, nch, &ctx, WeightContext::fill})
          .finish());
  return sum_re;
}

Tensor DasBeamformer::beamform(const us::TofCube& cube) const {
  check_cube(cube, probe_);
  if (!cube.is_analytic()) {
    // Beamformed RF -> analytic signal per image column (paper: "processed
    // with the Hilbert Transform to obtain the final B-mode image").
    return dsp::analytic_columns(beamform_rf(cube));
  }

  // Analytic input sums straight into the interleaved (nz, nx, 2) IQ image.
  const std::int64_t nz = cube.nz(), nx = cube.nx(), nch = cube.channels();
  const Apodization apod(probe_, apod_params_);
  const WeightContext ctx{apod, cube.grid};
  Tensor iq({nz, nx, 2});
  device::cpu().submit(
      device::CommandEncoder()
          .encode(device::DasApplyCmd{cube.real.raw(), cube.imag.raw(),
                                      iq.raw(), nz, nx, nch, &ctx,
                                      WeightContext::fill})
          .finish());
  return iq;
}

}  // namespace tvbf::bf
