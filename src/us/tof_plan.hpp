// Cached time-of-flight plans: the geometric half of ToF correction,
// precomputed once and replayed against any number of RF frames.
//
// us::tof_correct does two separable things per frame: (1) evaluate the
// purely geometric per-pixel/per-channel two-way delay and turn it into a
// fractional sample index, and (2) sample each channel there. In a streaming
// scanner (1) depends only on (probe, grid, steering angle, t0, sample
// count, interpolation flavor) — never on the RF — so a TofPlan bakes it
// into a table of sample indices + interpolation fractions that apply()
// gathers through. One plan serves every frame of a cine sequence, every
// frame of a training corpus, and (per angle) every compounded frame.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/interpolate.hpp"
#include "kernels/tof_gather.hpp"
#include "us/simulator.hpp"
#include "us/tof.hpp"

namespace tvbf::us {

/// Everything a plan's table depends on. Two acquisitions with equal keys
/// can share one plan; the cache hashes and compares this struct directly.
struct TofPlanKey {
  std::int64_t num_elements = 0;
  double pitch = 0.0;
  double sampling_frequency = 0.0;
  double sound_speed = 0.0;
  double steering_angle_rad = 0.0;
  double t0 = 0.0;
  std::int64_t n_samples = 0;
  us::ImagingGrid grid;
  dsp::Interp interp = dsp::Interp::kLinear;

  bool operator==(const TofPlanKey&) const = default;

  /// Throws InvalidArgument unless the geometry is finite: probe pitch,
  /// sampling frequency and sound speed, angle, t0, grid origin and
  /// spacing. (A NaN key would equal no key, itself included.)
  void require_finite() const;
};

/// Hash for unordered containers keyed on TofPlanKey.
std::size_t hash_key(const TofPlanKey& key);

/// Reusable per-frame scratch for TofPlan::apply (channel re-layout and,
/// for analytic cubes, the per-channel analytic signal). Passing the same
/// workspace across frames avoids reallocating ~n_ch * n_samples floats
/// per frame.
struct ChannelWorkspace {
  std::vector<float> re;  ///< (n_ch, n_samples) row-major channel data
  std::vector<float> im;  ///< same layout; filled only for analytic frames
};

/// Precomputed ToF gather table for one (probe, grid, angle, interp) tuple.
class TofPlan {
 public:
  /// Builds the plan from explicit geometry. `n_samples` is the RF length
  /// the plan will be applied to (boundary handling depends on it);
  /// num_elements * n_samples must be below 2^31, and the key's geometry
  /// finite (TofPlanKey::require_finite).
  static TofPlan build(const us::Probe& probe, const us::ImagingGrid& grid,
                       double steering_angle_rad, double t0,
                       std::int64_t n_samples,
                       dsp::Interp interp = dsp::Interp::kLinear);

  /// Convenience: derives the geometry from an acquisition.
  static TofPlan build_for(const us::Acquisition& acq,
                           const us::ImagingGrid& grid,
                           dsp::Interp interp = dsp::Interp::kLinear);

  /// Applies the plan to one frame, writing into `out` (buffers are reused
  /// when already correctly shaped — no allocation in the steady state).
  /// The acquisition must match the plan key (probe geometry, angle, t0,
  /// sample count); mismatches throw InvalidArgument. Results are
  /// numerically identical to us::tof_correct with the same parameters.
  void apply(const us::Acquisition& acq, bool analytic, us::TofCube& out,
             ChannelWorkspace* workspace = nullptr) const;

  /// Applies into a freshly allocated cube.
  us::TofCube apply(const us::Acquisition& acq, bool analytic) const;

  /// True when the plan can feed a consumer straight from the acquired RF,
  /// without the cube: its table is compact and linear. peak() and
  /// slot_rows() need it; the other plans only apply().
  bool reads_rf() const {
    return compact_ && key_.interp == dsp::Interp::kLinear;
  }

  /// max |v| over the RF cube apply(acq, false) writes, NaN skipped:
  /// kernels::max_abs of that cube, bit for bit, without writing it.
  /// Requires reads_rf(); validates `acq` as apply() does.
  float peak(const us::Acquisition& acq) const;

  /// Depth rows [z0, z0 + n_rows) of the RF cube apply(acq, false) writes,
  /// every value times `scale`, as slot tables (kernels/tof_gather.hpp)
  /// kernels::slot_row_floats(nx, nch) apart from out on: the value at
  /// kernels::slot_offset(nx, ix, c) of a row is the cube's (ix, c) times
  /// scale, bit for bit. Serial. Requires reads_rf(); validates `acq` as
  /// apply() does.
  void slot_rows(const us::Acquisition& acq, std::int64_t z0,
                 std::int64_t n_rows, float scale, float* out) const;

  const TofPlanKey& key() const { return key_; }

  /// Table footprint in bytes (what the cache budget counts).
  std::size_t bytes() const {
    return idx_.capacity() * sizeof(std::int32_t) +
           frac_.capacity() * sizeof(float);
  }

 private:
  TofPlan() = default;

  /// Throws InvalidArgument unless `acq` matches the key (shape, probe,
  /// angle, t0).
  void check(const us::Acquisition& acq) const;
  /// The compact table over `acq`'s RF, after check() and reads_rf().
  kernels::CompactRfGather rf_gather(const us::Acquisition& acq) const;

  TofPlanKey key_;
  // Entries (idx_, frac_) in kernels/tof_gather.hpp's encoding. The delay
  // of (pixel, channel) is t = (tau - t0) * fs samples: t outside
  // [0, n - 1] reads 0, else idx = floor(t) and frac = float(t - idx), but
  // idx = n - 2 with frac = 1 at t = n - 1 (a cubic plan biases an entry
  // without four samples around it). Pixel (iz, ix) reads its nch entries
  // from iz * row_stride + col0 + ix * col_step on:
  //   full    (nx * nch, 0, nch): one entry per (pixel, channel);
  //   compact (nx + nch - 1, nx - 1, -1): one per (depth row, ix - e), kept
  //           when every entry equals the one a column and a channel back.
  bool compact_ = false;
  std::vector<std::int32_t> idx_;
  std::vector<float> frac_;
};

}  // namespace tvbf::us
