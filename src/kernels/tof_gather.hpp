// ToF gather: samples channel-major RF lines at the fractional positions a
// ToF plan table holds, writing a (nz, nx, nch) cube plane per line set.
//
// The AVX2 form runs linear entries four channels at a time: one masked
// 64-bit gather fetches the sample pair line[base], line[base + 1] of each
// lane, (1 - f) * a + f * b is formed in double with separate multiplies and
// adds, then converted to float; out-of-range lanes are 0. The scalar form
// performs the same operations entry by entry. It also runs cubic plans and
// each pixel's last nch % 4 channels, and it is the test oracle and the
// build's path without AVX2. The two agree bit for bit (a NaN result is a
// NaN in both; which NaN operand an op propagates is the compiler's choice).
//
// The compact-RF form reads a compact linear table straight from the RF as
// acquired, sample-major (nsamples, nch): every channel of one slot shares
// the slot's (idx, frac), so channels e0..e0+7 of a slot load as two
// contiguous 8-float vectors, from RF rows idx and idx + 1. Its values are
// the ones tof_gather writes for the same table over channel-major lines;
// one entry point writes depth rows of that cube, times a scale, and the
// other returns its peak max |v|, without the cube.
//
// This TU is compiled with -ffp-contract=off: the lerp and the cubic
// polynomial are never fused into FMAs.
#pragma once

#include <cstdint>

#include "common/interp.hpp"

namespace tvbf::kernels {

/// Plan-entry encoding. An entry is (idx, frac), frac in [0, 1]:
///   idx == kTofOutOfRange         -> the sample is 0 (outside the RF window)
///   idx >= 0, cubic plan          -> Catmull-Rom at idx (reads idx-1..idx+2)
///   idx >= 0, linear plan         -> linear at idx (reads idx, idx+1)
///   idx <= kTofLinearBias         -> linear at (kTofLinearBias - idx); cubic
///                                    plans use it near the line's ends
inline constexpr std::int32_t kTofOutOfRange = -1;
inline constexpr std::int32_t kTofLinearBias = -2;

/// One gather over a plan table. Pixel (iz, ix) reads its nch entries
/// starting at iz * row_stride + col0 + ix * col_step; its entry e reads
/// line e of `lines_re` (and `lines_im`), nch lines of nsamples each,
/// stored one after another. `lines_im` and `out_im` are both null for an
/// RF cube. nch * nsamples must be below 2^31: the AVX2 form indexes the
/// lines with 32-bit offsets.
struct TofGather {
  const std::int32_t* idx = nullptr;
  const float* frac = nullptr;
  std::int64_t row_stride = 0, col0 = 0, col_step = 0;
  const float* lines_re = nullptr;
  const float* lines_im = nullptr;
  float* out_re = nullptr;
  float* out_im = nullptr;
  std::int64_t nz = 0, nx = 0, nch = 0, nsamples = 0;
  Interp interp = Interp::kLinear;
};

/// Fills the out planes, threaded over depth rows via the common pool.
void tof_gather(const TofGather& g);
/// The scalar form, serial.
void tof_gather_scalar(const TofGather& g);

/// A compact linear table over sample-major RF. Depth row iz holds
/// nx + nch - 1 slots from iz * (nx + nch - 1) on; pixel (iz, ix) reads
/// channel e through slot nx - 1 - ix + e, from rf[idx * nch + e] and
/// rf[(idx + 1) * nch + e]. Entries are linear: idx >= 0, biased or
/// kTofOutOfRange.
struct CompactRfGather {
  const std::int32_t* idx = nullptr;
  const float* frac = nullptr;
  const float* rf = nullptr;
  std::int64_t nz = 0, nx = 0, nch = 0;
};

/// Depth rows [z0, z1) of the cube, every value times `scale`, into out as
/// (z1 - z0, nx, nch), threaded over depth rows via the common pool.
void tof_rows_compact_rf(const CompactRfGather& g, std::int64_t z0,
                         std::int64_t z1, float scale, float* out);
/// The scalar form of tof_rows_compact_rf, serial.
void tof_rows_compact_rf_scalar(const CompactRfGather& g, std::int64_t z0,
                                std::int64_t z1, float scale, float* out);

/// max |v| over the whole cube, NaN skipped (max_abs of the cube), threaded
/// over depth rows via the common pool.
float tof_peak_compact_rf(const CompactRfGather& g);
/// The scalar form of tof_peak_compact_rf, serial.
float tof_peak_compact_rf_scalar(const CompactRfGather& g);

}  // namespace tvbf::kernels
