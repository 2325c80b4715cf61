// Fixed-point arithmetic primitives.
//
// The FPGA deployment of the paper uses signed two's-complement fixed point
// with per-component bit-widths (Table III). Two representations are
// provided:
//  * FixedFormat + quantize_value: "fake quantization" — float values
//    snapped to the representable grid with round-to-nearest and
//    saturation (it is bit-exact with integer arithmetic whose products are
//    rounded back to the same format, which unit tests verify). Both live
//    in kernels/quantize.hpp, with quantize_inplace, the vectorized form
//    that the kernels also round with as they produce values.
//  * Fixed: an actual integer-backed value type used by those tests and by
//    the accelerator's PE model.
#pragma once

#include <cstdint>

#include "kernels/quantize.hpp"
#include "tensor/tensor.hpp"

namespace tvbf::quant {

using kernels::FixedFormat;
using kernels::quantize_inplace;
using kernels::quantize_value;

/// Quantizes every element in place.
void quantize_tensor_inplace(Tensor& t, const FixedFormat& fmt);

/// Quantized copy.
Tensor quantized(const Tensor& t, const FixedFormat& fmt);

/// Activation/datapath format with a fixed integer-bit budget (the hardware
/// datapath cannot rescale per tensor): frac = bits - 1 - integer_bits.
FixedFormat activation_format(int bits, int integer_bits = 4);

/// Per-tensor weight format: integer bits sized to the tensor's max |w|
/// (hardware stores a per-layer shift), remaining bits fractional.
FixedFormat weight_format_for(const Tensor& w, int bits);

/// Per-output-channel weight quantization: each column of a rank-2 (in, out)
/// weight matrix gets its own power-of-two scale (the hardware stores one
/// shift per output lane — negligible overhead, much lower error at 8 bits).
/// Rank-1 tensors (biases, norms) fall back to per-tensor scaling.
void quantize_weights_per_channel_inplace(Tensor& w, int bits);

/// Integer-backed fixed-point value (for tests and the PE model).
class Fixed {
 public:
  Fixed() = default;
  Fixed(float v, FixedFormat fmt);

  /// Raw two's-complement integer payload.
  std::int64_t raw() const { return raw_; }
  const FixedFormat& format() const { return fmt_; }
  float to_float() const;

  /// Sum in the common format (formats must match).
  Fixed operator+(const Fixed& o) const;
  /// Product requantized back to this value's format: the widened product is
  /// shifted back with round-to-nearest-even, bit-exact with quantize_value's
  /// std::nearbyint rounding of the same real product.
  Fixed operator*(const Fixed& o) const;

 private:
  static std::int64_t saturate(std::int64_t v, int bits);

  std::int64_t raw_ = 0;
  FixedFormat fmt_;
};

/// Max |a - b| between a tensor and its quantized counterpart, relative to
/// max |a| (quantization error diagnostic).
double relative_quant_error(const Tensor& reference, const Tensor& quantized);

/// RMS |a - b| relative to max |a| — the image-level error metric (max-based
/// error is dominated by isolated attention flips; RMS tracks what the eye
/// sees in the B-mode).
double rms_quant_error(const Tensor& reference, const Tensor& quantized);

}  // namespace tvbf::quant
