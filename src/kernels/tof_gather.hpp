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
// the ones tof_gather writes for the same table over channel-major lines.
// One entry point writes depth rows as slot tables, every value times a
// scale, for a consumer that reads each pixel through slot_offset() (the
// Tiny-VBF embed does); the other returns the cube's peak max |v| from a
// per-RF-row bound, evaluating only the slots that could hold it.
//
// The encoder writes a plan's entries: one pixel's channels, four at a
// time in the AVX2 form, the delay formed in double through vsqrtpd and
// vdivpd, which round as sqrtsd and divsd do. Its scalar form, the
// receive term of us::two_way_delay plus the entry encoding, runs each
// pixel's last nch % 4 channels; it is the oracle and the path without
// AVX2. The two agree bit for bit.
//
// This TU is compiled with -ffp-contract=off: the delay, the lerp and the
// cubic polynomial are never fused into FMAs.
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

/// One pixel's entries over elements at lateral positions xs[0..nch).
/// Channel e's delay is t = (t_tx + sqrt(dx * dx + z * z) / sound_speed -
/// t0) * fs samples, dx = x - xs[e], with t_tx the pixel's transmit delay.
/// Over nsamples >= 2 samples it encodes as: t outside [0, nsamples - 1],
/// NaN included, -> (kTofOutOfRange, 0); else base = min(trunc(t),
/// nsamples - 2) and frac = float(t - base), so the last sample reads as
/// frac 1 of the last pair, and idx = base; a cubic plan biases idx to
/// kTofLinearBias - base unless 1 <= base <= nsamples - 3 (Catmull-Rom
/// needs base - 1 .. base + 2). nsamples must be below 2^31.
struct TofEncode {
  const double* xs = nullptr;
  std::int64_t nch = 0;
  double x = 0.0, z = 0.0, t_tx = 0.0;
  double sound_speed = 0.0, t0 = 0.0, fs = 0.0;
  std::int64_t nsamples = 0;
  Interp interp = Interp::kLinear;
};

/// Writes the pixel's entries to idx[0..nch) and frac[0..nch).
void tof_encode(const TofEncode& p, std::int32_t* idx, float* frac);
/// The scalar form, entry by entry.
void tof_encode_scalar(const TofEncode& p, std::int32_t* idx, float* frac);

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

/// A depth row's slot table: channel group q (channels 8q..8q+7, the last
/// group padded past nch) holds the nx + 7 slots 8q .. 8q + nx + 6, each as
/// eight lanes, lane l being channel 8q + l of that slot. Pixel ix takes
/// lane l from slot 8q + (nx - 1 - ix) + l, so the cube row's value (ix, c)
/// sits at slot_offset(nx, ix, c). Lanes no pixel reads hold 0 or a value.
inline std::int64_t slot_row_floats(std::int64_t nx, std::int64_t nch) {
  return (nch + 7) / 8 * (nx + 7) * 8;
}
inline std::int64_t slot_offset(std::int64_t nx, std::int64_t ix,
                                std::int64_t c) {
  return 8 * ((nx + 7) * (c / 8) + nx - 1 - ix) + 9 * (c % 8);
}

/// Depth rows [z0, z1) as slot tables, slot_row_floats(nx, nch) apart from
/// out on, every value times `scale`: the value at slot_offset(nx, ix, c)
/// of row iz is the cube's (iz, ix, c) times scale, bit for bit. Serial.
void tof_slot_rows_compact_rf(const CompactRfGather& g, std::int64_t z0,
                              std::int64_t z1, float scale, float* out);
/// The scalar form of tof_slot_rows_compact_rf.
void tof_slot_rows_compact_rf_scalar(const CompactRfGather& g,
                                     std::int64_t z0, std::int64_t z1,
                                     float scale, float* out);

/// max |v| over the whole cube, NaN skipped (max_abs of the cube, bit for
/// bit), evaluating only the slots whose bound could exceed it. Serial.
float tof_peak_compact_rf(const CompactRfGather& g);
/// The scalar form of tof_peak_compact_rf.
float tof_peak_compact_rf_scalar(const CompactRfGather& g);

}  // namespace tvbf::kernels
