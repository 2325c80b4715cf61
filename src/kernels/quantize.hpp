// Fake fixed-point rounding kernel.
//
// Snaps float values in place onto the grid of a signed two's-complement
// format with `bits` total and `frac_bits` fractional bits: each value is
// scaled by 2^frac_bits in double, rounded half to even, clamped to
// [-2^(bits-1), 2^(bits-1) - 1] and scaled back. +inf saturates high; -inf
// and NaN saturate low. This is quant::quantize_value, vectorized: the
// per-element divide and ldexp calls of the scalar form become one hoisted
// scale, so the result is the same bit for bit. The quantized Tiny-VBF
// applies it to every buffer its datapath rounds.
#pragma once

#include <cstdint>

namespace tvbf::kernels {

/// Rounds the leading elements of x[0, n) in place, 8 at a time, and
/// returns how many it rounded: n rounded down to a multiple of 8, or 0
/// when the library is built without AVX2. The caller rounds the remaining
/// tail with its scalar reference.
std::int64_t fake_quantize_blocks(float* x, std::int64_t n, int bits,
                                  int frac_bits);

}  // namespace tvbf::kernels
