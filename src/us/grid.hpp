// Imaging grid: the pixel lattice every beamformer and the network write to.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "us/probe.hpp"

namespace tvbf::us {

/// Regular pixel lattice over (depth z, lateral x).
struct ImagingGrid {
  double x0 = -19e-3;  ///< first column lateral position [m]
  double z0 = 5e-3;    ///< first row depth [m]
  double dx = 0.3e-3;  ///< lateral pixel spacing [m]
  double dz = 0.1e-3;  ///< axial pixel spacing [m]
  std::int64_t nx = 128;  ///< columns (lateral)
  std::int64_t nz = 368;  ///< rows (depth)

  double x_at(std::int64_t ix) const { return x0 + dx * static_cast<double>(ix); }
  double z_at(std::int64_t iz) const { return z0 + dz * static_cast<double>(iz); }
  double x_end() const { return x_at(nx - 1); }
  double z_end() const { return z_at(nz - 1); }
  std::int64_t num_pixels() const { return nx * nz; }

  /// Nearest column index for a lateral position (clamped).
  std::int64_t column_of(double x) const;
  /// Nearest row index for a depth (clamped).
  std::int64_t row_of(double z) const;

  void validate() const;
  bool operator==(const ImagingGrid&) const = default;

  /// Paper-scale grid: 368 x 128 pixels spanning the probe aperture,
  /// depths ~5-42 mm (matches the reported frame size).
  static ImagingGrid paper(const Probe& probe);

  /// Reduced grid for fast tests/benches.
  static ImagingGrid reduced(const Probe& probe, std::int64_t nz, std::int64_t nx,
                             double z_min = 5e-3, double z_max = 42e-3);
};

}  // namespace tvbf::us
