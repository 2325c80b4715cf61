#include "kernels/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace tvbf::kernels {

void FixedFormat::validate() const {
  TVBF_REQUIRE(bits >= 2 && bits <= 63, "fixed-point width must be in [2, 63]");
  TVBF_REQUIRE(frac_bits >= 0 && frac_bits < bits,
               "fractional bits must be in [0, bits)");
}

double FixedFormat::step() const { return std::ldexp(1.0, -frac_bits); }

double FixedFormat::max_value() const {
  return (std::ldexp(1.0, bits - 1) - 1.0) * step();
}

double FixedFormat::min_value() const {
  return -std::ldexp(1.0, bits - 1) * step();
}

float quantize_value(float v, const FixedFormat& fmt) {
  if (!std::isfinite(v)) return v > 0 ? static_cast<float>(fmt.max_value())
                                      : static_cast<float>(fmt.min_value());
  const double scaled = std::nearbyint(static_cast<double>(v) / fmt.step());
  const double lo = -std::ldexp(1.0, fmt.bits - 1);
  const double hi = std::ldexp(1.0, fmt.bits - 1) - 1.0;
  const double clamped = std::clamp(scaled, lo, hi);
  return static_cast<float>(clamped * fmt.step());
}

void quantize_inplace(float* x, std::int64_t n, const FixedFormat& fmt) {
  fmt.validate();
  std::int64_t i = 0;
#ifdef __AVX2__
  const FloatGrid g(fmt);
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(x + i, round8(_mm256_loadu_ps(x + i), g));
#endif
  for (; i < n; ++i) x[i] = quantize_value(x[i], fmt);
}

}  // namespace tvbf::kernels
