#include "kernels/tof_gather.hpp"

#ifdef __AVX2__
#include <immintrin.h>
#endif

#include <cstddef>

#include "common/parallel.hpp"

namespace tvbf::kernels {
namespace {

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

}  // namespace tvbf::kernels
