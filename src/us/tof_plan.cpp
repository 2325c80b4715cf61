#include "us/tof_plan.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <span>

#include "common/parallel.hpp"
#include "dsp/hilbert.hpp"
#include "kernels/tof_gather.hpp"

namespace tvbf::us {

namespace {

std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

std::size_t hash_double(double v) {
  // Normalize -0.0 so equal keys hash equally.
  if (v == 0.0) v = 0.0;
  return std::hash<std::uint64_t>{}(std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::size_t hash_key(const TofPlanKey& key) {
  std::size_t h = std::hash<std::int64_t>{}(key.num_elements);
  h = hash_combine(h, hash_double(key.pitch));
  h = hash_combine(h, hash_double(key.sampling_frequency));
  h = hash_combine(h, hash_double(key.sound_speed));
  h = hash_combine(h, hash_double(key.steering_angle_rad));
  h = hash_combine(h, hash_double(key.t0));
  h = hash_combine(h, std::hash<std::int64_t>{}(key.n_samples));
  h = hash_combine(h, hash_double(key.grid.x0));
  h = hash_combine(h, hash_double(key.grid.z0));
  h = hash_combine(h, hash_double(key.grid.dx));
  h = hash_combine(h, hash_double(key.grid.dz));
  h = hash_combine(h, std::hash<std::int64_t>{}(key.grid.nx));
  h = hash_combine(h, std::hash<std::int64_t>{}(key.grid.nz));
  return hash_combine(h, static_cast<std::size_t>(key.interp));
}

void TofPlanKey::require_finite() const {
  for (const double v : {pitch, sampling_frequency, sound_speed,
                         steering_angle_rad, t0, grid.x0, grid.z0, grid.dx,
                         grid.dz})
    TVBF_REQUIRE(std::isfinite(v), "ToF plan key geometry must be finite");
}

TofPlan TofPlan::build(const us::Probe& probe, const us::ImagingGrid& grid,
                       double steering_angle_rad, double t0,
                       std::int64_t n_samples, dsp::Interp interp) {
  TofPlan plan;
  plan.key_ = {probe.num_elements, probe.pitch, probe.sampling_frequency,
               probe.sound_speed, steering_angle_rad, t0, n_samples, grid,
               interp};
  plan.key_.require_finite();
  probe.validate();
  grid.validate();
  TVBF_REQUIRE(n_samples > 1, "ToF plan needs more than one RF sample");
  TVBF_REQUIRE(probe.num_elements * n_samples < (std::int64_t{1} << 31),
               "ToF plan lines exceed 2^31 samples (32-bit gather offsets)");

  const std::int64_t n_ch = probe.num_elements;
  const double c = probe.sound_speed;
  const auto xs = probe.element_positions();
  const double sin_th = std::sin(steering_angle_rad);
  const double cos_th = std::cos(steering_angle_rad);
  const double tx_offset =
      sin_th >= 0.0 ? xs.front() * sin_th : xs.back() * sin_th;
  // The encoder's input for pixel (iz, ix), over every channel.
  const auto pixel = [&](std::int64_t iz, std::int64_t ix) {
    const double x = grid.x_at(ix), z = grid.z_at(iz);
    // The transmit term of us::two_way_delay: the same expression on the
    // same inputs, so the same double, once per pixel.
    const double t_tx = (z * cos_th + x * sin_th - tx_offset) / c;
    return kernels::TofEncode{xs.data(), n_ch, x, z, t_tx, c, t0,
                              probe.sampling_frequency, n_samples, interp};
  };

  // Compact pass: entry (ix, e) of row iz goes to slot ix - e, which keeps
  // its first entry (ix == 0 or e == 0); a later one that differs ends the
  // pass. Pixel 0 is encoded into its slots, every other pixel in chunks
  // on the stack, whose channels from 1 on are compared with their slots
  // as 32-bit lanes: idx, and frac's bits (frac is never NaN or -0, so
  // equal bits are equal values).
  const std::int64_t nx = grid.nx, width = nx + n_ch - 1;
  plan.idx_.resize(static_cast<std::size_t>(grid.nz * width));
  plan.frac_.resize(plan.idx_.size());
  std::atomic<bool> compact{true};
  parallel_for_each(0, static_cast<std::size_t>(grid.nz), [&](std::size_t zi) {
    const auto iz = static_cast<std::int64_t>(zi);
    std::int32_t* idx = plan.idx_.data() + iz * width + nx - 1;
    float* frac = plan.frac_.data() + iz * width + nx - 1;
    kernels::tof_encode(pixel(iz, 0), idx, frac);
    constexpr std::int64_t kChunk = 128;
    std::int32_t chunk_idx[kChunk];
    float chunk_frac[kChunk];
    for (std::int64_t ix = 1; ix < nx; ++ix) {
      if (!compact.load(std::memory_order_relaxed)) return;
      kernels::TofEncode p = pixel(iz, ix);
      for (std::int64_t e0 = 0; e0 < n_ch; e0 += kChunk) {
        p.xs = xs.data() + e0;
        p.nch = std::min(kChunk, n_ch - e0);
        kernels::tof_encode(p, chunk_idx, chunk_frac);
        const std::int64_t k = e0 == 0 ? 1 : 0, slot = e0 - ix + k;
        const auto bytes = static_cast<std::size_t>(p.nch - k) * 4;
        if (std::memcmp(chunk_idx + k, idx + slot, bytes) != 0 ||
            std::memcmp(chunk_frac + k, frac + slot, bytes) != 0) {
          compact.store(false, std::memory_order_relaxed);
          return;
        }
        if (k == 1) {
          idx[-ix] = chunk_idx[0];
          frac[-ix] = chunk_frac[0];
        }
      }
    }
  }, /*min_grain=*/1);
  plan.compact_ = compact.load(std::memory_order_relaxed);
  if (plan.compact_) return plan;

  plan.idx_ = std::vector<std::int32_t>(
      static_cast<std::size_t>(grid.num_pixels() * n_ch));
  plan.frac_ = std::vector<float>(plan.idx_.size());
  parallel_for_each(0, static_cast<std::size_t>(grid.nz), [&](std::size_t zi) {
    const auto iz = static_cast<std::int64_t>(zi);
    for (std::int64_t ix = 0; ix < nx; ++ix) {
      const std::int64_t at = (iz * nx + ix) * n_ch;
      kernels::tof_encode(pixel(iz, ix), plan.idx_.data() + at,
                          plan.frac_.data() + at);
    }
  }, /*min_grain=*/1);
  return plan;
}

TofPlan TofPlan::build_for(const us::Acquisition& acq,
                           const us::ImagingGrid& grid, dsp::Interp interp) {
  TVBF_REQUIRE(acq.rf.rank() == 2 && acq.num_samples() > 1,
               "acquisition holds no RF data");
  TVBF_REQUIRE(acq.num_channels() == acq.probe.num_elements,
               "RF channel count does not match the probe");
  return build(acq.probe, grid, acq.steering_angle_rad, acq.t0,
               acq.num_samples(), interp);
}

void TofPlan::check(const us::Acquisition& acq) const {
  TVBF_REQUIRE(acq.rf.rank() == 2, "acquisition holds no RF data");
  TVBF_REQUIRE(acq.num_samples() == key_.n_samples &&
                   acq.num_channels() == key_.num_elements,
               "acquisition shape does not match the plan");
  TVBF_REQUIRE(acq.probe.num_elements == key_.num_elements &&
                   acq.probe.pitch == key_.pitch &&
                   acq.probe.sampling_frequency == key_.sampling_frequency &&
                   acq.probe.sound_speed == key_.sound_speed,
               "acquisition probe does not match the plan");
  TVBF_REQUIRE(acq.steering_angle_rad == key_.steering_angle_rad &&
                   acq.t0 == key_.t0,
               "acquisition steering/t0 does not match the plan");
}

kernels::CompactRfGather TofPlan::rf_gather(
    const us::Acquisition& acq) const {
  TVBF_REQUIRE(reads_rf(), "ToF plan does not read RF directly");
  check(acq);
  return {idx_.data(), frac_.data(), acq.rf.raw(), key_.grid.nz,
          key_.grid.nx, key_.num_elements};
}

float TofPlan::peak(const us::Acquisition& acq) const {
  return kernels::tof_peak_compact_rf(rf_gather(acq));
}

void TofPlan::slot_rows(const us::Acquisition& acq, std::int64_t z0,
                        std::int64_t n_rows, float scale, float* out) const {
  const kernels::CompactRfGather g = rf_gather(acq);
  TVBF_REQUIRE(z0 >= 0 && n_rows >= 0 && z0 + n_rows <= g.nz,
               "depth rows outside the plan's grid");
  kernels::tof_slot_rows_compact_rf(g, z0, z0 + n_rows, scale, out);
}

void TofPlan::apply(const us::Acquisition& acq, bool analytic,
                    us::TofCube& out, ChannelWorkspace* workspace) const {
  check(acq);

  const std::int64_t n = key_.n_samples;
  const std::int64_t n_ch = key_.num_elements;
  const us::ImagingGrid& grid = key_.grid;

  ChannelWorkspace local;
  ChannelWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.re.resize(static_cast<std::size_t>(n_ch * n));
  if (analytic) ws.im.resize(static_cast<std::size_t>(n_ch * n));

  // Re-layout channel data as (nch, nsamples) so the gather reads each
  // channel contiguously; optionally build the analytic signal per channel.
  parallel_for_each(0, static_cast<std::size_t>(n_ch), [&](std::size_t e) {
    float* re = ws.re.data() + e * static_cast<std::size_t>(n);
    for (std::int64_t i = 0; i < n; ++i)
      re[i] = acq.rf.raw()[i * n_ch + static_cast<std::int64_t>(e)];
    if (analytic) {
      float* im = ws.im.data() + e * static_cast<std::size_t>(n);
      const auto a = dsp::analytic_signal(
          std::span<const float>(re, static_cast<std::size_t>(n)));
      for (std::int64_t i = 0; i < n; ++i) {
        re[i] = static_cast<float>(a[static_cast<std::size_t>(i)].real());
        im[i] = static_cast<float>(a[static_cast<std::size_t>(i)].imag());
      }
    }
  }, /*min_grain=*/1);

  out.grid = grid;
  const Shape cube_shape{grid.nz, grid.nx, n_ch};
  if (out.real.shape() != cube_shape) out.real = Tensor(cube_shape);
  if (analytic) {
    if (out.imag.shape() != cube_shape) out.imag = Tensor(cube_shape);
  } else if (!out.imag.empty()) {
    out.imag = Tensor();
  }

  kernels::tof_gather({idx_.data(), frac_.data(),
                       compact_ ? grid.nx + n_ch - 1 : grid.nx * n_ch,
                       compact_ ? grid.nx - 1 : 0, compact_ ? -1 : n_ch,
                       ws.re.data(), analytic ? ws.im.data() : nullptr,
                       out.real.raw(), analytic ? out.imag.raw() : nullptr,
                       grid.nz, grid.nx, n_ch, n, key_.interp});
}

us::TofCube TofPlan::apply(const us::Acquisition& acq, bool analytic) const {
  us::TofCube cube;
  apply(acq, analytic, cube);
  return cube;
}

}  // namespace tvbf::us
