#include "quant/fixed_point.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::quant {

void quantize_tensor_inplace(Tensor& t, const FixedFormat& fmt) {
  quantize_inplace(t.raw(), t.size(), fmt);
}

Tensor quantized(const Tensor& t, const FixedFormat& fmt) {
  Tensor out = t;
  quantize_tensor_inplace(out, fmt);
  return out;
}

FixedFormat activation_format(int bits, int integer_bits) {
  TVBF_REQUIRE(integer_bits >= 0 && integer_bits < bits - 1,
               "integer bits must leave room for sign and fraction");
  FixedFormat f;
  f.bits = bits;
  f.frac_bits = bits - 1 - integer_bits;
  f.validate();
  return f;
}

FixedFormat weight_format_for(const Tensor& w, int bits) {
  const float m = max_abs(w);
  // Integer bits needed to represent max |w| (at least 0).
  int int_bits = 0;
  if (m > 0.0f) {
    const double need = std::ceil(std::log2(static_cast<double>(m) + 1e-12));
    int_bits = std::max(0, static_cast<int>(need));
  }
  int_bits = std::min(int_bits, bits - 2);
  FixedFormat f;
  f.bits = bits;
  f.frac_bits = bits - 1 - int_bits;
  f.validate();
  return f;
}

void quantize_weights_per_channel_inplace(Tensor& w, int bits) {
  if (w.rank() != 2) {
    quantize_tensor_inplace(w, weight_format_for(w, bits));
    return;
  }
  const std::int64_t rows = w.dim(0), cols = w.dim(1);
  for (std::int64_t j = 0; j < cols; ++j) {
    Tensor col({rows});
    for (std::int64_t i = 0; i < rows; ++i) col.raw()[i] = w.raw()[i * cols + j];
    const FixedFormat fmt = weight_format_for(col, bits);
    for (std::int64_t i = 0; i < rows; ++i)
      w.raw()[i * cols + j] = quantize_value(w.raw()[i * cols + j], fmt);
  }
}

Fixed::Fixed(float v, FixedFormat fmt) : fmt_(fmt) {
  fmt_.validate();
  const double scaled = std::nearbyint(static_cast<double>(v) / fmt.step());
  raw_ = saturate(static_cast<std::int64_t>(scaled), fmt.bits);
}

std::int64_t Fixed::saturate(std::int64_t v, int bits) {
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  return std::clamp(v, lo, hi);
}

float Fixed::to_float() const {
  return static_cast<float>(static_cast<double>(raw_) * fmt_.step());
}

Fixed Fixed::operator+(const Fixed& o) const {
  TVBF_REQUIRE(fmt_.bits == o.fmt_.bits && fmt_.frac_bits == o.fmt_.frac_bits,
               "fixed-point addition requires matching formats");
  Fixed out;
  out.fmt_ = fmt_;
  out.raw_ = saturate(raw_ + o.raw_, fmt_.bits);
  return out;
}

Fixed Fixed::operator*(const Fixed& o) const {
  // Widened product has frac_bits + o.frac_bits fractional bits; shift back
  // to this format with round-to-nearest-even, matching quantize_value's
  // std::nearbyint so the integer accelerator path and the fake-quantized
  // tensor path agree on ties (the old `wide + half - 1` negative-tie
  // handling rounded -0.5 steps toward -inf instead of to even).
  Fixed out;
  out.fmt_ = fmt_;
  const std::int64_t wide = raw_ * o.raw_;
  const int shift = o.fmt_.frac_bits;
  std::int64_t rounded = wide;
  if (shift > 0) {
    const std::int64_t half = std::int64_t{1} << (shift - 1);
    std::int64_t q = wide >> shift;  // floor (arithmetic shift)
    const std::int64_t rem = wide - (q << shift);  // in [0, 2^shift)
    if (rem > half || (rem == half && (q & 1))) ++q;
    rounded = q;
  }
  out.raw_ = saturate(rounded, fmt_.bits);
  return out;
}

double relative_quant_error(const Tensor& reference, const Tensor& q) {
  const float m = max_abs(reference);
  if (m == 0.0f) return 0.0;
  return static_cast<double>(max_abs_diff(reference, q)) / m;
}

double rms_quant_error(const Tensor& reference, const Tensor& q) {
  TVBF_REQUIRE(same_shape(reference.shape(), q.shape()),
               "rms_quant_error shape mismatch");
  const float m = max_abs(reference);
  if (m == 0.0f || reference.size() == 0) return 0.0;
  double acc = 0.0;
  for (std::int64_t i = 0; i < reference.size(); ++i) {
    const double d =
        static_cast<double>(reference.raw()[i]) - q.raw()[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(reference.size())) / m;
}

}  // namespace tvbf::quant
