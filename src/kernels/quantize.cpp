#include "kernels/quantize.hpp"

#ifdef __AVX2__
#include <immintrin.h>
#endif

#include <cmath>

namespace tvbf::kernels {

#ifdef __AVX2__

namespace {

/// The format's constants, broadcast once per call.
struct Grid {
  __m256d scale, step, lo, hi;
};

/// Four floats through the grid in double. min(hi, x) passes a NaN x
/// through (the second operand wins) and max(x, lo) then maps it to lo, so
/// NaN saturates low exactly as in the scalar form.
inline __m128 round4(__m128 x, const Grid& g) {
  __m256d d = _mm256_mul_pd(_mm256_cvtps_pd(x), g.scale);
  d = _mm256_round_pd(d, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  d = _mm256_max_pd(_mm256_min_pd(g.hi, d), g.lo);
  return _mm256_cvtpd_ps(_mm256_mul_pd(d, g.step));
}

}  // namespace

std::int64_t fake_quantize_blocks(float* x, std::int64_t n, int bits,
                                  int frac_bits) {
  const Grid g{_mm256_set1_pd(std::ldexp(1.0, frac_bits)),
               _mm256_set1_pd(std::ldexp(1.0, -frac_bits)),
               _mm256_set1_pd(-std::ldexp(1.0, bits - 1)),
               _mm256_set1_pd(std::ldexp(1.0, bits - 1) - 1.0)};
  const std::int64_t body = n - n % 8;
  for (std::int64_t i = 0; i < body; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m128 lo = round4(_mm256_castps256_ps128(v), g);
    const __m128 hi = round4(_mm256_extractf128_ps(v, 1), g);
    _mm256_storeu_ps(x + i, _mm256_set_m128(hi, lo));
  }
  return body;
}

#else

std::int64_t fake_quantize_blocks(float*, std::int64_t, int, int) {
  return 0;
}

#endif

}  // namespace tvbf::kernels
