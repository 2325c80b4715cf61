#include "dsp/fft.hpp"

#include <cmath>

#include "common/error.hpp"

namespace tvbf::dsp {
namespace {

bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// a * b written out: (ar br - ai bi, ar bi + ai br), each product rounded
/// before its add or subtract (this TU is compiled with -ffp-contract=off).
/// std::complex's operator* forms the same values, but for a result whose
/// parts are both NaN it calls libgcc's __muldc3, which recovers infinite
/// operands as C Annex G asks; that check and call kept the loops below
/// scalar. Here NaN and infinite inputs simply propagate.
inline std::complex<double> mul(std::complex<double> a,
                                std::complex<double> b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// In-place iterative radix-2 Cooley-Tukey; `inverse` flips the twiddle sign.
void fft_radix2(std::vector<std::complex<double>>& x, bool inverse) {
  const std::size_t n = x.size();
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const std::complex<double> u = x[i + j];
        const std::complex<double> v = mul(x[i + j + len / 2], w);
        x[i + j] = u + v;
        x[i + j + len / 2] = u - v;
        w = mul(w, wlen);
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : x) v *= inv_n;
  }
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(std::vector<std::complex<double>>& x) {
  TVBF_REQUIRE(is_power_of_two(x.size()), "fft size must be a power of two");
  fft_radix2(x, /*inverse=*/false);
}

void ifft_inplace(std::vector<std::complex<double>>& x) {
  TVBF_REQUIRE(is_power_of_two(x.size()), "ifft size must be a power of two");
  fft_radix2(x, /*inverse=*/true);
}

std::vector<std::complex<double>> fft(std::span<const std::complex<double>> x) {
  std::vector<std::complex<double>> out(x.begin(), x.end());
  fft_inplace(out);
  return out;
}

std::vector<std::complex<double>> ifft(std::span<const std::complex<double>> x) {
  std::vector<std::complex<double>> out(x.begin(), x.end());
  ifft_inplace(out);
  return out;
}

std::vector<std::complex<double>> dft_reference(
    std::span<const std::complex<double>> x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double ang =
          -2.0 * M_PI * static_cast<double>(k) * static_cast<double>(t) /
          static_cast<double>(n);
      acc += x[t] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

}  // namespace tvbf::dsp
