// Unit and property tests for the DSP substrate: FFT, Hilbert/envelope,
// IQ demodulation, log compression, interpolation and windows.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/fft.hpp"
#include "dsp/hilbert.hpp"
#include "dsp/interpolate.hpp"
#include "dsp/window.hpp"

namespace tvbf::dsp {
namespace {

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> x(3);
  EXPECT_THROW(fft_inplace(x), tvbf::InvalidArgument);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<std::complex<double>> x(8, {0.0, 0.0});
  x[0] = {1.0, 0.0};
  const auto spec = fft(x);
  for (const auto& v : spec) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<std::complex<double>> x(n);
  const std::size_t k0 = 5;
  for (std::size_t t = 0; t < n; ++t) {
    const double ph = 2.0 * M_PI * static_cast<double>(k0 * t) / n;
    x[t] = {std::cos(ph), std::sin(ph)};
  }
  const auto spec = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == k0)
      EXPECT_NEAR(std::abs(spec[k]), static_cast<double>(n), 1e-9);
    else
      EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-9);
  }
}

/// The radix-2 FFT with its products formed by std::complex<double>'s
/// operator*, which calls libgcc's __muldc3 where both parts of a product
/// are NaN: the transform as it was written before the products were
/// spelled out in real arithmetic.
void fft_std_complex(std::vector<std::complex<double>>& x, bool inverse) {
  const std::size_t n = x.size();
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
        const std::complex<double> v = x[i + j + len / 2] * w;
        x[i + j] = u + v;
        x[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : x) v *= inv_n;
  }
}

/// Real and imaginary parts, in order.
std::vector<double> parts(const std::vector<std::complex<double>>& x) {
  std::vector<double> out;
  for (const auto& v : x) {
    out.push_back(v.real());
    out.push_back(v.imag());
  }
  return out;
}

TEST(Fft, NonFiniteInputAgainstStdComplexProducts) {
  // A NaN sample makes every output NaN either way. An infinite one makes
  // some outputs infinite and others NaN: where __muldc3 recovered an
  // infinite product the transform now reads NaN; every other part keeps
  // its bits (finite ones included).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  tvbf::Rng rng(9);
  std::vector<std::complex<double>> column(64);
  for (auto& v : column) v = {rng.normal(), 0.0};
  using Samples = std::vector<std::pair<std::size_t, double>>;
  const std::vector<Samples> cases = {
      {{5, nan}}, {{5, inf}}, {{5, -inf}}, {{3, nan}, {9, inf}, {20, -inf}}};
  for (const bool inverse : {false, true}) {
    for (const Samples& samples : cases) {
      std::vector<std::complex<double>> x = column;
      bool has_nan = false;
      for (const auto& [at, value] : samples) {
        x[at] = {value, 0.0};
        has_nan = has_nan || std::isnan(value);
      }
      std::vector<std::complex<double>> want = x;
      fft_std_complex(want, inverse);
      if (inverse)
        ifft_inplace(x);
      else
        fft_inplace(x);
      const std::vector<double> got_parts = parts(x);
      const std::vector<double> want_parts = parts(want);
      std::size_t recovered = 0;
      for (std::size_t i = 0; i < got_parts.size(); ++i) {
        const double g = got_parts[i], w = want_parts[i];
        if (std::isnan(w)) {
          EXPECT_TRUE(std::isnan(g)) << i;
        } else if (std::isinf(w) && std::isnan(g)) {
          ++recovered;
        } else {
          EXPECT_EQ(std::memcmp(&g, &w, sizeof g), 0) << i << ": " << g
                                                       << " vs " << w;
        }
      }
      if (has_nan) {
        EXPECT_EQ(recovered, 0u);
        for (const double g : got_parts) EXPECT_TRUE(std::isnan(g));
      } else {
        EXPECT_GT(recovered, 0u) << "inverse " << inverse;
      }
    }
  }
}

class FftSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSize, MatchesStdComplexProductsBitForBit) {
  tvbf::Rng rng(GetParam() + 3);
  std::vector<std::complex<double>> x(GetParam());
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  for (const bool inverse : {false, true}) {
    std::vector<std::complex<double>> got = x, want = x;
    fft_std_complex(want, inverse);
    if (inverse)
      ifft_inplace(got);
    else
      fft_inplace(got);
    const std::vector<double> g = parts(got), w = parts(want);
    EXPECT_EQ(std::memcmp(g.data(), w.data(), g.size() * sizeof(double)), 0)
        << "inverse " << inverse;
  }
}

TEST_P(FftSize, MatchesReferenceDft) {
  tvbf::Rng rng(GetParam());
  std::vector<std::complex<double>> x(GetParam());
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  const auto fast = fft(x);
  const auto ref = dft_reference(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(fast[i] - ref[i]), 0.0, 1e-8 * x.size());
}

TEST_P(FftSize, RoundTripIsIdentity) {
  tvbf::Rng rng(GetParam() + 1);
  std::vector<std::complex<double>> x(GetParam());
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  const auto back = ifft(fft(x));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-10 * x.size());
}

TEST_P(FftSize, ParsevalHolds) {
  tvbf::Rng rng(GetParam() + 2);
  std::vector<std::complex<double>> x(GetParam());
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  const auto spec = fft(x);
  double time_e = 0.0, freq_e = 0.0;
  for (const auto& v : x) time_e += std::norm(v);
  for (const auto& v : spec) freq_e += std::norm(v);
  EXPECT_NEAR(freq_e / static_cast<double>(x.size()), time_e,
              1e-9 * time_e * x.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSize,
                         ::testing::Values(1, 2, 4, 8, 32, 128, 512));

TEST(Hilbert, RealPartReproducesInput) {
  tvbf::Rng rng(12);
  std::vector<float> x(300);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  const auto a = analytic_signal(x);
  ASSERT_EQ(a.size(), x.size());
  // Zero-padding to 512 perturbs the tail slightly; interior must match.
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(a[i].real(), x[i], 2e-2) << "at " << i;
}

TEST(Hilbert, EnvelopeOfToneIsConstant) {
  // envelope(cos(wt)) == 1 away from the edges.
  const std::size_t n = 512;
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = static_cast<float>(std::cos(2.0 * M_PI * 40.0 * i / n));
  const auto env = envelope(x);
  for (std::size_t i = n / 8; i < 7 * n / 8; ++i)
    EXPECT_NEAR(env[i], 1.0f, 5e-3) << "at " << i;
}

TEST(Hilbert, EnvelopeRecoversGaussianPulse) {
  // envelope(gauss(t) * cos(w t)) ~= gauss(t).
  const std::size_t n = 1024;
  std::vector<float> x(n);
  const double c = n / 2.0, sigma = 40.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double g = std::exp(-(i - c) * (i - c) / (2 * sigma * sigma));
    x[i] = static_cast<float>(g * std::cos(2.0 * M_PI * 0.2 * i));
  }
  const auto env = envelope(x);
  for (std::size_t i = 100; i + 100 < n; ++i) {
    const double g = std::exp(-(i - c) * (i - c) / (2 * sigma * sigma));
    EXPECT_NEAR(env[i], g, 0.02);
  }
}

TEST(Hilbert, EmptyInputThrows) {
  EXPECT_THROW(analytic_signal({}), tvbf::InvalidArgument);
}

/// Exact analytic signal on the sequence's own n-point spectrum via the
/// O(n^2) reference DFT (inverse computed with the conjugation identity).
std::vector<std::complex<double>> analytic_reference(
    const std::vector<float>& x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = {static_cast<double>(x[i]), 0.0};
  ref = dft_reference(ref);
  for (std::size_t k = 1; k < (n + 1) / 2; ++k) ref[k] *= 2.0;
  for (std::size_t k = n / 2 + 1; k < n; ++k) ref[k] = {0.0, 0.0};
  for (auto& v : ref) v = std::conj(v);
  ref = dft_reference(ref);
  for (auto& v : ref) v = std::conj(v) / static_cast<double>(n);
  return ref;
}

TEST(Hilbert, NonPow2TailMatchesExactDftReference) {
  // Documents the zero-padding artifact for non-power-of-two lengths: the
  // padded fast path rings at the edges relative to the exact n-point
  // analytic signal. The bound below is the contract — a full-scale
  // un-windowed tone (the worst case) stays within ~0.4 of full scale on
  // the outermost tail samples while the interior is essentially exact.
  const std::size_t n = 300;  // pads to 512
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = static_cast<float>(std::sin(2.0 * M_PI * 37.0 * i / n) +
                              0.3 * std::cos(2.0 * M_PI * 11.0 * i / n));
  const auto ref = analytic_reference(x);
  const auto fast = analytic_signal(x);
  ASSERT_EQ(fast.size(), n);
  double tail_err = 0.0;
  for (std::size_t i = n - 32; i < n; ++i)
    tail_err = std::max(tail_err, std::abs(fast[i] - ref[i]));
  EXPECT_LT(tail_err, 0.5) << "tail ringing vs exact analytic signal";
  double mid_err = 0.0;
  for (std::size_t i = n / 4; i < 3 * n / 4; ++i)
    mid_err = std::max(mid_err, std::abs(fast[i] - ref[i]));
  EXPECT_LT(mid_err, 0.02) << "interior must be essentially exact";
}

TEST(Hilbert, NonPow2WindowedPulseIsNearlyExact) {
  // Realistic RF data is pulse-shaped (windowed to zero at the edges); for
  // such signals the padded fast path matches the exact analytic signal to
  // well under 0.1% everywhere, tail included.
  const std::size_t n = 300;
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double g =
        std::exp(-0.5 * std::pow((static_cast<double>(i) - 160.0) / 40.0, 2));
    x[i] = static_cast<float>(g * std::cos(2.0 * M_PI * 0.2 * i));
  }
  const auto ref = analytic_reference(x);
  const auto fast = analytic_signal(x);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    err = std::max(err, std::abs(fast[i] - ref[i]));
  EXPECT_LT(err, 1e-3);
}

TEST(IqDemod, ShiftsToneToBaseband) {
  // A tone at fc demodulates to a (nearly) constant complex value.
  const double fs = 20e6, fc = 5e6;
  const std::size_t n = 1024;
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = static_cast<float>(std::cos(2.0 * M_PI * fc * i / fs));
  const auto iq = iq_demodulate(x, fc, fs);
  for (std::size_t i = 64; i + 64 < n; ++i) {
    EXPECT_NEAR(std::abs(iq[i]), 1.0, 1e-2);
    EXPECT_NEAR(iq[i].real(), 1.0, 2e-2);  // phase ~ 0
  }
}

TEST(IqDemod, ValidatesFrequencies) {
  std::vector<float> x(16, 1.0f);
  EXPECT_THROW(iq_demodulate(x, -1.0, 10.0), tvbf::InvalidArgument);
  EXPECT_THROW(iq_demodulate(x, 6.0, 10.0), tvbf::InvalidArgument);
}

TEST(EnvelopeColumns, PerColumnMatchesVectorEnvelope) {
  const std::int64_t nz = 128, nx = 3;
  Tensor rf({nz, nx});
  tvbf::Rng rng(13);
  for (auto& v : rf.data()) v = static_cast<float>(rng.normal());
  const Tensor env = envelope_columns(rf);
  for (std::int64_t x = 0; x < nx; ++x) {
    std::vector<float> col(static_cast<std::size_t>(nz));
    for (std::int64_t z = 0; z < nz; ++z)
      col[static_cast<std::size_t>(z)] = rf.at(z, x);
    const auto ref = envelope(col);
    for (std::int64_t z = 0; z < nz; ++z)
      EXPECT_NEAR(env.at(z, x), ref[static_cast<std::size_t>(z)], 1e-5);
  }
}

TEST(EnvelopeIq, Magnitude) {
  Tensor iq({1, 2, 2}, std::vector<float>{3, 4, 0, -2});
  const Tensor env = envelope_iq(iq);
  EXPECT_FLOAT_EQ(env.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(env.at(0, 1), 2.0f);
  EXPECT_THROW(envelope_iq(Tensor({2, 2})), tvbf::InvalidArgument);
}

TEST(LogCompress, NormalizesAndClips) {
  Tensor env({1, 3}, std::vector<float>{1.0f, 0.1f, 1e-9f});
  const Tensor db = log_compress(env, 40.0);
  EXPECT_FLOAT_EQ(db.at(0, 0), 0.0f);
  EXPECT_NEAR(db.at(0, 1), -20.0f, 1e-4);
  EXPECT_FLOAT_EQ(db.at(0, 2), -40.0f);  // clipped at the dynamic range
}

TEST(LogCompress, AllZeroEnvelopeYieldsFloorImage) {
  // Degenerate but valid input (e.g. a fully zero acquisition) must produce
  // the floor image, not crash the pipeline.
  const Tensor db = log_compress(Tensor({2, 2}), 60.0);
  for (std::int64_t i = 0; i < db.size(); ++i)
    EXPECT_FLOAT_EQ(db.raw()[i], -60.0f);
}

TEST(LogCompress, RejectsInvalidInput) {
  Tensor neg({1, 1}, std::vector<float>{-1.0f});
  EXPECT_THROW(log_compress(neg, 60.0), tvbf::InvalidArgument);
  Tensor ok({1, 1}, std::vector<float>{1.0f});
  EXPECT_THROW(log_compress(ok, -5.0), tvbf::InvalidArgument);
}

TEST(Interpolate, LinearIsExactOnLines) {
  std::vector<float> x{0.0f, 2.0f, 4.0f, 6.0f};
  EXPECT_FLOAT_EQ(interp_linear(x, 1.5), 3.0f);
  EXPECT_FLOAT_EQ(interp_linear(x, 0.25), 0.5f);
  EXPECT_FLOAT_EQ(interp_linear(x, 3.0), 6.0f);
}

TEST(Interpolate, OutOfRangeReturnsZero) {
  std::vector<float> x{1.0f, 2.0f};
  EXPECT_FLOAT_EQ(interp_linear(x, -0.1), 0.0f);
  EXPECT_FLOAT_EQ(interp_linear(x, 1.1), 0.0f);
  EXPECT_FLOAT_EQ(interp_cubic(x, 5.0), 0.0f);
  EXPECT_FLOAT_EQ(interp_linear({}, 0.0), 0.0f);
}

TEST(Interpolate, CubicReproducesQuadratics) {
  // Catmull-Rom is exact for polynomials up to degree 3 on interior spans.
  std::vector<float> x(10);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(0.5 * i * i - i + 2.0);
  for (double t = 2.0; t <= 7.0; t += 0.13) {
    const double expect = 0.5 * t * t - t + 2.0;
    EXPECT_NEAR(interp_cubic(x, t), expect, 1e-4) << "t=" << t;
  }
}

TEST(Interpolate, CubicFallsBackToLinearAtEdges) {
  std::vector<float> x{0.0f, 1.0f, 2.0f, 3.0f};
  EXPECT_FLOAT_EQ(interp_cubic(x, 0.5), interp_linear(x, 0.5));
}

class WindowCase : public ::testing::TestWithParam<WindowKind> {};

TEST_P(WindowCase, SymmetricAndBounded) {
  const auto w = make_window(GetParam(), 33);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], 0.0f);
    EXPECT_LE(w[i], 1.0f + 1e-6f);
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-6) << "at " << i;
  }
  // Center of a symmetric window is its maximum.
  EXPECT_NEAR(w[16], *std::max_element(w.begin(), w.end()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Kinds, WindowCase,
                         ::testing::Values(WindowKind::kBoxcar,
                                           WindowKind::kHann,
                                           WindowKind::kHamming,
                                           WindowKind::kTukey25));

TEST(Window, KnownValues) {
  EXPECT_FLOAT_EQ(window_at(WindowKind::kBoxcar, 0.5), 1.0f);
  EXPECT_NEAR(window_at(WindowKind::kHann, 0.5), 1.0, 1e-6);
  EXPECT_NEAR(window_at(WindowKind::kHann, 0.0), 0.0, 1e-6);
  EXPECT_NEAR(window_at(WindowKind::kHamming, 0.0), 0.08, 1e-6);
  EXPECT_FLOAT_EQ(window_at(WindowKind::kHann, -0.1), 0.0f);
  EXPECT_FLOAT_EQ(window_at(WindowKind::kHann, 1.1), 0.0f);
}

TEST(Window, SingleAndZeroLength) {
  EXPECT_EQ(make_window(WindowKind::kHann, 1), std::vector<float>{1.0f});
  EXPECT_THROW(make_window(WindowKind::kHann, 0), tvbf::InvalidArgument);
}

}  // namespace
}  // namespace tvbf::dsp
