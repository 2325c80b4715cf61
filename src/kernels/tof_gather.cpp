#include "kernels/tof_gather.hpp"

#ifdef __AVX2__
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/parallel.hpp"
#include "kernels/reduce.hpp"

namespace tvbf::kernels {
namespace {

/// Encodes the fractional sample position `t` into a plan entry, mirroring
/// the boundary conventions of dsp::interp_linear / dsp::interp_cubic
/// exactly: outside [0, n-1] the sample is zero; cubic falls back to linear
/// near the edges; t landing on the last sample reads it via frac == 1 so
/// the gather never touches x[n] (n >= 2).
void encode_entry(double t, std::int64_t n, Interp interp, std::int32_t& idx,
                  float& frac) {
  if (!(t >= 0.0) || t > static_cast<double>(n - 1)) {
    idx = kTofOutOfRange;
    frac = 0.0f;
    return;
  }
  const auto i0 = static_cast<std::int64_t>(t);
  const bool last = i0 + 1 >= n;
  const std::int64_t base = last ? n - 2 : i0;
  const float f = last ? 1.0f
                       : static_cast<float>(t - static_cast<double>(i0));
  if (interp == Interp::kCubic && !last && i0 != 0 && i0 + 2 < n) {
    idx = static_cast<std::int32_t>(i0);  // interior Catmull-Rom
    frac = f;
    return;
  }
  // Linear entry: in linear plans this is the only non-zero kind (idx >= 0
  // means linear there); cubic plans mark edge fallbacks with the bias.
  idx = interp == Interp::kCubic
            ? kTofLinearBias - static_cast<std::int32_t>(base)
            : static_cast<std::int32_t>(base);
  frac = f;
}

/// Channels [e_begin, nch) of the pixel, one entry at a time.
void encode_scalar(const TofEncode& p, std::int64_t e_begin,
                   std::int32_t* idx, float* frac) {
  for (std::int64_t e = e_begin; e < p.nch; ++e) {
    // The receive term of us::two_way_delay.
    const double dx = p.x - p.xs[e];
    const double t_rx = std::sqrt(dx * dx + p.z * p.z) / p.sound_speed;
    encode_entry((p.t_tx + t_rx - p.t0) * p.fs, p.nsamples, p.interp, idx[e],
                 frac[e]);
  }
}

/// One plan entry sampled from a contiguous channel line.
inline float gather(const float* line, std::int32_t idx, float frac,
                    Interp interp) {
  if (idx == kTofOutOfRange) return 0.0f;
  if (idx >= 0 && interp == Interp::kCubic) {
    const double u = frac;
    const double p0 = line[idx - 1], p1 = line[idx], p2 = line[idx + 1],
                 p3 = line[idx + 2];
    const double a = -0.5 * p0 + 1.5 * p1 - 1.5 * p2 + 0.5 * p3;
    const double b = p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3;
    const double c = -0.5 * p0 + 0.5 * p2;
    return static_cast<float>(((a * u + b) * u + c) * u + p1);
  }
  const std::int32_t base = idx >= 0 ? idx : kTofLinearBias - idx;
  const double f = frac;
  return static_cast<float>((1.0 - f) * line[base] + f * line[base + 1]);
}

/// Pixel (iz, ix)'s first plan entry.
std::int64_t entry_of(const TofGather& g, std::int64_t iz, std::int64_t ix) {
  return iz * g.row_stride + g.col0 + ix * g.col_step;
}

/// Channels [e_begin, nch) of pixel (iz, ix), one entry at a time.
void gather_pixel_scalar(const TofGather& g, std::int64_t iz, std::int64_t ix,
                         std::int64_t e_begin) {
  const std::int64_t p = entry_of(g, iz, ix);
  const std::int64_t o = (iz * g.nx + ix) * g.nch;
  for (std::int64_t e = e_begin; e < g.nch; ++e) {
    const std::size_t line =
        static_cast<std::size_t>(e) * static_cast<std::size_t>(g.nsamples);
    g.out_re[o + e] =
        gather(g.lines_re + line, g.idx[p + e], g.frac[p + e], g.interp);
    if (g.out_im != nullptr)
      g.out_im[o + e] =
          gather(g.lines_im + line, g.idx[p + e], g.frac[p + e], g.interp);
  }
}

void rows_scalar(const TofGather& g, std::int64_t z_begin,
                 std::int64_t z_end) {
  for (std::int64_t iz = z_begin; iz < z_end; ++iz)
    for (std::int64_t ix = 0; ix < g.nx; ++ix)
      gather_pixel_scalar(g, iz, ix, 0);
}

/// Channel e of a compact-RF slot (idx, frac), the linear case of gather().
inline float lerp_rf(const CompactRfGather& g, std::int32_t idx, float frac,
                     std::int64_t e) {
  if (idx == kTofOutOfRange) return 0.0f;
  const std::int64_t base = idx >= 0 ? idx : kTofLinearBias - idx;
  const float* a = g.rf + base * g.nch + e;
  const double f = frac;
  return static_cast<float>((1.0 - f) * a[0] + f * a[g.nch]);
}

std::int64_t slots_of(const CompactRfGather& g) { return g.nx + g.nch - 1; }
std::int64_t groups_of(const CompactRfGather& g) { return (g.nch + 7) / 8; }

/// Depth row iz's slot table, every value times scale, into `table`.
void slot_row_scalar(const CompactRfGather& g, std::int64_t iz, float scale,
                     float* table) {
  const std::int32_t* idx = g.idx + iz * slots_of(g);
  const float* frac = g.frac + iz * slots_of(g);
  for (std::int64_t q = 0; q < groups_of(g); ++q)
    for (std::int64_t s = 0; s < g.nx + 7; ++s)
      for (std::int64_t l = 0; l < 8; ++l) {
        const std::int64_t j = 8 * q + s, c = 8 * q + l;
        const float v = j < slots_of(g) && c < g.nch
                            ? lerp_rf(g, idx[j], frac[j], c) : 0.0f;
        *table++ = j < slots_of(g) ? v * scale : 0.0f;
      }
}

/// Slot j feeds channels [first_channel, end_channel): those whose pixel
/// ix = nx - 1 - j + e lies on the grid.
std::int64_t first_channel(const CompactRfGather& g, std::int64_t j) {
  return std::max<std::int64_t>(0, j - g.nx + 1);
}
std::int64_t end_channel(const CompactRfGather& g, std::int64_t j) {
  return std::min(j, g.nch - 1) + 1;
}

/// max |v| over the channels slot j of depth row iz feeds, NaN skipped.
float slot_peak_scalar(const CompactRfGather& g, std::int64_t iz,
                       std::int64_t j) {
  const std::int64_t at = iz * slots_of(g) + j;
  float m = 0.0f;
  for (std::int64_t e = first_channel(g, j); e < end_channel(g, j); ++e)
    m = std::max(m, std::fabs(lerp_rf(g, g.idx[at], g.frac[at], e)));
  return m;
}

/// The bounded peak. A value of a slot is fl32(fl64(fl64(1 - f) * a) +
/// fl64(f * b)) for its channel's samples a and b (RF rows base and
/// base + 1) and f in [0, 1], and its magnitude is at most
/// max(|a|, |b|): in double the sum exceeds (1 - f + f) * max(|a|, |b|)
/// by a few double ulps at most, far below half a float ulp, so rounding
/// to float cannot pass that float. With R[s] = max |rf row s| over the
/// channels, NaN skipped, max(R[base], R[base + 1]) bounds every value of
/// the slot: a NaN sample makes its values NaN, which the peak skips, and
/// an infinite one makes the bound infinite. The slot with the largest
/// bound is evaluated first, then only the slots whose bound exceeds the
/// running max, since no other slot can raise it; max is exact and
/// skips NaN in any order, so the result is max_abs of the cube, bit for
/// bit. Worst case, every bound exceeds the true peak: the full pass plus
/// the bound pass.
template <class RowMax, class SlotPeak>
float bounded_peak(const CompactRfGather& g, const RowMax& row_max,
                   const SlotPeak& slot_peak) {
  const std::int64_t width = slots_of(g);
  const auto base_of = [](std::int32_t idx) -> std::int64_t {
    return idx >= 0 ? idx : kTofLinearBias - idx;
  };
  std::int64_t rows = 0;  // the RF rows the table reads: [0, rows)
  for (std::int64_t i = 0; i < g.nz * width; ++i)
    if (g.idx[i] != kTofOutOfRange)
      rows = std::max(rows, base_of(g.idx[i]) + 2);
  if (rows == 0) return 0.0f;
  std::vector<float> row_bound(static_cast<std::size_t>(rows));
  for (std::int64_t s = 0; s < rows; ++s)
    row_bound[static_cast<std::size_t>(s)] = row_max(g.rf + s * g.nch);
  const auto bound = [&](std::int64_t i) {
    const auto at = static_cast<std::size_t>(base_of(g.idx[i]));
    return std::max(row_bound[at], row_bound[at + 1]);
  };
  std::int64_t top = -1;
  float top_bound = -1.0f;
  for (std::int64_t i = 0; i < g.nz * width; ++i)
    if (g.idx[i] != kTofOutOfRange && bound(i) > top_bound) {
      top = i;
      top_bound = bound(i);
    }
  float m = slot_peak(g, top / width, top % width);
  for (std::int64_t i = 0; i < g.nz * width; ++i)
    if (g.idx[i] != kTofOutOfRange && bound(i) > m)
      m = std::max(m, slot_peak(g, i / width, i % width));
  return m;
}

#ifdef __AVX2__

/// Four linear entries from `lines`: lane l reads the float pair at
/// lines[at_l] as one 64-bit value (lanes off in `valid` read 0).
__m128 lerp4(const float* lines, __m128i at, __m256d valid, __m256d f,
             __m256d one_minus_f) {
  const __m256d pair = _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), reinterpret_cast<const double*>(lines), at, valid,
      4);
  // (a0 b0 a1 b1 a2 b2 a3 b3) -> (a0 a1 a2 a3 b0 b1 b2 b3).
  const __m256 ab = _mm256_permutevar8x32_ps(
      _mm256_castpd_ps(pair), _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
  const __m256d a = _mm256_cvtps_pd(_mm256_castps256_ps128(ab));
  const __m256d b = _mm256_cvtps_pd(_mm256_extractf128_ps(ab, 1));
  return _mm256_cvtpd_ps(
      _mm256_add_pd(_mm256_mul_pd(one_minus_f, a), _mm256_mul_pd(f, b)));
}

void rows_avx2(const TofGather& g, std::int64_t z_begin, std::int64_t z_end) {
  if (g.interp == Interp::kCubic) {
    rows_scalar(g, z_begin, z_end);
    return;
  }
  const std::int64_t body = g.nch - g.nch % 4;
  // Lanes read lines e..e+3 at offsets (e + l) * n + base: below 2^31 when
  // a lane is used (nch >= 4); the products wrap harmlessly otherwise.
  const __m128i first_lines = _mm_mullo_epi32(
      _mm_setr_epi32(0, 1, 2, 3),
      _mm_set1_epi32(static_cast<std::int32_t>(g.nsamples)));
  const __m128i next_lines =
      _mm_set1_epi32(static_cast<std::int32_t>(4 * g.nsamples));
  const __m128i bias = _mm_set1_epi32(kTofLinearBias);
  const __m128i out_of_range = _mm_set1_epi32(kTofOutOfRange);
  const __m256d one = _mm256_set1_pd(1.0);
  for (std::int64_t iz = z_begin; iz < z_end; ++iz) {
    for (std::int64_t ix = 0; ix < g.nx; ++ix) {
      const std::int64_t p = entry_of(g, iz, ix);
      const std::int64_t o = (iz * g.nx + ix) * g.nch;
      __m128i lines = first_lines;
      for (std::int64_t e = 0; e < body; e += 4) {
        const __m128i idx = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(g.idx + p + e));
        // base = idx for idx >= 0, kTofLinearBias - idx below; that maps
        // kTofOutOfRange to itself, the only negative base.
        const __m128i base = _mm_max_epi32(idx, _mm_sub_epi32(bias, idx));
        const __m256d valid = _mm256_castsi256_pd(
            _mm256_cvtepi32_epi64(_mm_cmpgt_epi32(base, out_of_range)));
        const __m128i at = _mm_add_epi32(lines, base);
        const __m256d f = _mm256_cvtps_pd(_mm_loadu_ps(g.frac + p + e));
        const __m256d one_minus_f = _mm256_sub_pd(one, f);
        _mm_storeu_ps(g.out_re + o + e,
                      lerp4(g.lines_re, at, valid, f, one_minus_f));
        if (g.out_im != nullptr)
          _mm_storeu_ps(g.out_im + o + e,
                        lerp4(g.lines_im, at, valid, f, one_minus_f));
        lines = _mm_add_epi32(lines, next_lines);
      }
      gather_pixel_scalar(g, iz, ix, body);
    }
  }
}

void encode_avx2(const TofEncode& p, std::int32_t* idx, float* frac) {
  const std::int64_t body = p.nch - p.nch % 4;
  const __m256d x = _mm256_set1_pd(p.x), zz = _mm256_set1_pd(p.z * p.z);
  const __m256d c = _mm256_set1_pd(p.sound_speed);
  const __m256d t_tx = _mm256_set1_pd(p.t_tx), t0 = _mm256_set1_pd(p.t0);
  const __m256d fs = _mm256_set1_pd(p.fs), zero = _mm256_setzero_pd();
  const __m256d last_t = _mm256_set1_pd(static_cast<double>(p.nsamples - 1));
  const __m128i last_base =
      _mm_set1_epi32(static_cast<std::int32_t>(p.nsamples - 2));
  const __m128i bias = _mm_set1_epi32(kTofLinearBias);
  const __m128i out_of_range = _mm_set1_epi32(kTofOutOfRange);
  const __m256i low_halves = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const bool cubic = p.interp == Interp::kCubic;
  for (std::int64_t e = 0; e < body; e += 4) {
    const __m256d dx = _mm256_sub_pd(x, _mm256_loadu_pd(p.xs + e));
    const __m256d t_rx = _mm256_div_pd(
        _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx), zz)), c);
    const __m256d t =
        _mm256_mul_pd(_mm256_sub_pd(_mm256_add_pd(t_tx, t_rx), t0), fs);
    // 0 <= t <= n - 1, false for NaN; as 32-bit lanes.
    const __m256d in_range = _mm256_and_pd(_mm256_cmp_pd(t, zero, _CMP_GE_OQ),
                                           _mm256_cmp_pd(t, last_t, _CMP_LE_OQ));
    const __m128i in32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        _mm256_castpd_si256(in_range), low_halves));
    // In range, trunc(t) <= n - 1 fits; it is n - 1 only at t == n - 1,
    // which the min makes base n - 2 with t - base == 1 exactly. Lanes out
    // of range compute garbage that the blends below drop.
    const __m128i base = _mm_min_epi32(_mm256_cvttpd_epi32(t), last_base);
    const __m128 f =
        _mm256_cvtpd_ps(_mm256_sub_pd(t, _mm256_cvtepi32_pd(base)));
    __m128i code = base;
    if (cubic) {
      const __m128i interior =
          _mm_and_si128(_mm_cmpgt_epi32(base, _mm_setzero_si128()),
                        _mm_cmpgt_epi32(last_base, base));
      code = _mm_blendv_epi8(_mm_sub_epi32(bias, base), base, interior);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(idx + e),
                     _mm_blendv_epi8(out_of_range, code, in32));
    _mm_storeu_ps(frac + e, _mm_and_ps(_mm_castsi128_ps(in32), f));
  }
  encode_scalar(p, body, idx, frac);
}

/// (1 - f) * a + f * b over four channels, in double, rounded to float.
inline __m128 lerp_rf4(__m128 a, __m128 b, __m256d f, __m256d one_minus_f) {
  return _mm256_cvtpd_ps(
      _mm256_add_pd(_mm256_mul_pd(one_minus_f, _mm256_cvtps_pd(a)),
                    _mm256_mul_pd(f, _mm256_cvtps_pd(b))));
}

/// The RF rows a compact slot reads from (its channel e at a[e] and b[e])
/// and its frac as f and 1 - f; false for an out-of-range slot.
struct SlotRows {
  const float* a;
  const float* b;
  __m256d f, one_minus_f;
};
inline bool slot_rows(const CompactRfGather& g, std::int32_t idx, float frac,
                      SlotRows& s) {
  if (idx == kTofOutOfRange) return false;
  const std::int64_t base = idx >= 0 ? idx : kTofLinearBias - idx;
  s.a = g.rf + base * g.nch;
  s.b = s.a + g.nch;
  s.f = _mm256_set1_pd(frac);
  s.one_minus_f = _mm256_set1_pd(1.0 - static_cast<double>(frac));
  return true;
}

/// Channels e..e+3 of a slot; with n < 4, lanes from n on read 0.
inline __m128 slot4(const SlotRows& s, std::int64_t e, std::int64_t n = 4) {
  if (n >= 4)
    return lerp_rf4(_mm_loadu_ps(s.a + e), _mm_loadu_ps(s.b + e), s.f,
                    s.one_minus_f);
  const __m128i mask =
      _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<std::int32_t>(n)),
                      _mm_setr_epi32(0, 1, 2, 3));
  return lerp_rf4(_mm_maskload_ps(s.a + e, mask),
                  _mm_maskload_ps(s.b + e, mask), s.f, s.one_minus_f);
}

void slot_rows_avx2(const CompactRfGather& g, std::int64_t z0,
                    std::int64_t z1, float scale, float* out) {
  const std::int64_t nx = g.nx, nch = g.nch, groups = groups_of(g);
  const std::int64_t span = g.nx + 7, slots = slots_of(g);
  // Slot j is lane block s = j - 8q of the groups q with 0 <= s < span;
  // it is computed slot by slot (contiguous RF loads). The last group's
  // lanes past nch load 0.
  const __m128 scale4 = _mm_set1_ps(scale);
  const __m128 out_of_range = _mm_mul_ps(_mm_setzero_ps(), scale4);
  const std::int64_t next_group = (span - 8) * 8;
  for (std::int64_t iz = z0; iz < z1; ++iz) {
    const std::int32_t* idx = g.idx + iz * slots;
    const float* frac = g.frac + iz * slots;
    float* table = out + (iz - z0) * slot_row_floats(nx, nch);
    for (std::int64_t j = 0; j < 8 * groups + nx - 1; ++j) {
      const std::int64_t q_begin =
          std::max<std::int64_t>(0, (j - span + 8) / 8);
      const std::int64_t q_end = std::min(groups, j / 8 + 1);
      float* to = table + (q_begin * span + j - 8 * q_begin) * 8;
      SlotRows sr;
      if (j >= slots || !slot_rows(g, idx[j], frac[j], sr)) {
        const __m128 zero = j >= slots ? _mm_setzero_ps() : out_of_range;
        for (std::int64_t q = q_begin; q < q_end; ++q, to += next_group)
          _mm_storeu_ps(to, zero), _mm_storeu_ps(to + 4, zero);
        continue;
      }
      for (std::int64_t q = q_begin; q < q_end; ++q, to += next_group)
        for (std::int64_t e = 8 * q; e < 8 * q + 8; e += 4)
          _mm_storeu_ps(to + e - 8 * q,
                        _mm_mul_ps(slot4(sr, e, nch - e), scale4));
    }
  }
}

float slot_peak_avx2(const CompactRfGather& g, std::int64_t iz,
                     std::int64_t j) {
  const std::int64_t at = iz * slots_of(g) + j;
  SlotRows sr;
  if (!slot_rows(g, g.idx[at], g.frac[at], sr)) return 0.0f;  // reads 0
  // max_ps(v, m) returns m when v is NaN, as in max_abs.
  const __m128 sign = _mm_set1_ps(-0.0f);
  __m128 m0 = _mm_setzero_ps(), m1 = m0;
  const std::int64_t end = end_channel(g, j);
  std::int64_t e = first_channel(g, j);
  for (; e + 8 <= end; e += 8) {
    m0 = _mm_max_ps(_mm_andnot_ps(sign, slot4(sr, e)), m0);
    m1 = _mm_max_ps(_mm_andnot_ps(sign, slot4(sr, e + 4)), m1);
  }
  for (; e < end; e += 4) {
    // Lanes from `end` on load 0 and so add |0|.
    m0 = _mm_max_ps(_mm_andnot_ps(sign, slot4(sr, e, end - e)), m0);
  }
  __m128 m = _mm_max_ps(m0, m1);
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

#endif  // __AVX2__

}  // namespace

void tof_gather(const TofGather& g) {
  parallel_for(
      0, static_cast<std::size_t>(g.nz),
      [&](std::size_t z_begin, std::size_t z_end) {
#ifdef __AVX2__
        rows_avx2(g, static_cast<std::int64_t>(z_begin),
                  static_cast<std::int64_t>(z_end));
#else
        rows_scalar(g, static_cast<std::int64_t>(z_begin),
                    static_cast<std::int64_t>(z_end));
#endif
      },
      /*min_grain=*/1);
}

void tof_gather_scalar(const TofGather& g) { rows_scalar(g, 0, g.nz); }

void tof_encode(const TofEncode& p, std::int32_t* idx, float* frac) {
#ifdef __AVX2__
  encode_avx2(p, idx, frac);
#else
  encode_scalar(p, 0, idx, frac);
#endif
}

void tof_encode_scalar(const TofEncode& p, std::int32_t* idx, float* frac) {
  encode_scalar(p, 0, idx, frac);
}

void tof_slot_rows_compact_rf(const CompactRfGather& g, std::int64_t z0,
                              std::int64_t z1, float scale, float* out) {
#ifdef __AVX2__
  slot_rows_avx2(g, z0, z1, scale, out);
#else
  tof_slot_rows_compact_rf_scalar(g, z0, z1, scale, out);
#endif
}

void tof_slot_rows_compact_rf_scalar(const CompactRfGather& g,
                                     std::int64_t z0, std::int64_t z1,
                                     float scale, float* out) {
  for (std::int64_t iz = z0; iz < z1; ++iz)
    slot_row_scalar(g, iz, scale,
                    out + (iz - z0) * slot_row_floats(g.nx, g.nch));
}

float tof_peak_compact_rf(const CompactRfGather& g) {
#ifdef __AVX2__
  return bounded_peak(
      g, [&](const float* row) { return max_abs(row, g.nch); },
      slot_peak_avx2);
#else
  return tof_peak_compact_rf_scalar(g);
#endif
}

float tof_peak_compact_rf_scalar(const CompactRfGather& g) {
  return bounded_peak(
      g, [&](const float* row) { return max_abs_scalar(row, g.nch); },
      slot_peak_scalar);
}

}  // namespace tvbf::kernels
