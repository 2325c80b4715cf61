// Fake fixed-point rounding: a float is scaled by 2^frac_bits, rounded
// half to even, clamped to [-2^(bits-1), 2^(bits-1) - 1] and scaled back;
// +inf saturates high, -inf and NaN low. quantize_value is the scalar
// reference, in double; round8, which the GEMM epilogue and the attention
// block use, does the same in float lanes with the same bits for every
// valid format: x * 2^frac_bits and q * 2^-frac_bits are exact in float, an
// overflow to +-inf clamps as the double value does, and above 25 bits
// float(2^(bits-1) - 1) rounds to 2^(bits-1), as the double result does.
#pragma once

#include <cmath>
#include <cstdint>

#ifdef __AVX2__
#include <immintrin.h>
#endif

namespace tvbf::kernels {

/// Signed two's-complement fixed-point format: `bits` total (including
/// sign), `frac_bits` fractional. Representable step is 2^-frac_bits.
struct FixedFormat {
  int bits = 16;
  int frac_bits = 11;

  /// Largest representable value.
  double max_value() const;
  /// Smallest (most negative) representable value.
  double min_value() const;
  /// Quantization step.
  double step() const;

  void validate() const;
};

/// A datapath's formats: multiply/add results, layer outputs, softmax.
struct DatapathFormats {
  FixedFormat op, inter, softmax;
};

/// Rounds to the nearest representable value, saturating at the range ends.
float quantize_value(float v, const FixedFormat& fmt);

/// quantize_value over x[0, n) in place: blocks of eight through round8
/// (none without AVX2), the tail through quantize_value.
void quantize_inplace(float* x, std::int64_t n, const FixedFormat& fmt);

#ifdef __AVX2__

/// A format's constants, broadcast to float lanes.
struct FloatGrid {
  explicit FloatGrid(const FixedFormat& f)
      : scale(_mm256_set1_ps(std::ldexp(1.0f, f.frac_bits))),
        step(_mm256_set1_ps(std::ldexp(1.0f, -f.frac_bits))),
        lo(_mm256_set1_ps(-std::ldexp(1.0f, f.bits - 1))),
        hi(_mm256_set1_ps(
            static_cast<float>(std::ldexp(1.0, f.bits - 1) - 1.0))) {}
  __m256 scale, step, lo, hi;
};

/// Eight floats onto the grid. min(hi, r) passes a NaN r through (the
/// second operand wins) and max(r, lo) then maps it to lo, so NaN
/// saturates low as in quantize_value.
inline __m256 round8(__m256 x, const FloatGrid& g) {
  const __m256 r = _mm256_round_ps(_mm256_mul_ps(x, g.scale),
                                   _MM_FROUND_TO_NEAREST_INT |
                                       _MM_FROUND_NO_EXC);
  return _mm256_mul_ps(_mm256_max_ps(_mm256_min_ps(g.hi, r), g.lo), g.step);
}

#endif

}  // namespace tvbf::kernels
