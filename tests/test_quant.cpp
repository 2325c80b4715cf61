// Tests for fixed-point quantization: formats, fake-quant vs integer
// arithmetic equivalence, schemes, and the quantized Tiny-VBF kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "quant/fixed_point.hpp"
#include "quant/quantized_tiny_vbf.hpp"
#include "quant/scheme.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::quant {
namespace {

TEST(FixedFormat, RangesAndStep) {
  FixedFormat f{16, 11};
  EXPECT_DOUBLE_EQ(f.step(), 1.0 / 2048.0);
  EXPECT_DOUBLE_EQ(f.max_value(), (32768.0 - 1.0) / 2048.0);
  EXPECT_DOUBLE_EQ(f.min_value(), -16.0);
  EXPECT_NO_THROW(f.validate());
  EXPECT_THROW((FixedFormat{1, 0}).validate(), InvalidArgument);
  EXPECT_THROW((FixedFormat{16, 16}).validate(), InvalidArgument);
}

TEST(Quantize, RoundsToNearestStep) {
  const FixedFormat f{8, 4};  // step 1/16
  EXPECT_FLOAT_EQ(quantize_value(0.5f, f), 0.5f);
  EXPECT_FLOAT_EQ(quantize_value(0.51f, f), 0.5f);
  EXPECT_FLOAT_EQ(quantize_value(0.54f, f), 0.5625f);
  EXPECT_FLOAT_EQ(quantize_value(-0.51f, f), -0.5f);
}

TEST(Quantize, Saturates) {
  const FixedFormat f{8, 4};  // range [-8, 7.9375]
  EXPECT_FLOAT_EQ(quantize_value(100.0f, f), 7.9375f);
  EXPECT_FLOAT_EQ(quantize_value(-100.0f, f), -8.0f);
  EXPECT_FLOAT_EQ(quantize_value(std::numeric_limits<float>::infinity(), f),
                  7.9375f);
}

class QuantBits : public ::testing::TestWithParam<int> {};

TEST_P(QuantBits, ErrorBoundedByHalfStep) {
  // Property: |q(x) - x| <= step/2 inside the representable range.
  const FixedFormat f = activation_format(GetParam(), 4);
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.uniform(-15.0, 15.0));
    const float q = quantize_value(x, f);
    EXPECT_LE(std::fabs(q - x), f.step() / 2.0 + 1e-9) << "x=" << x;
  }
}

TEST_P(QuantBits, MoreBitsNeverWorse) {
  const FixedFormat coarse = activation_format(GetParam(), 4);
  const FixedFormat fine = activation_format(GetParam() + 4, 4);
  Rng rng(GetParam() + 100);
  double err_coarse = 0.0, err_fine = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.uniform(-10.0, 10.0));
    err_coarse += std::fabs(quantize_value(x, coarse) - x);
    err_fine += std::fabs(quantize_value(x, fine) - x);
  }
  EXPECT_LE(err_fine, err_coarse);
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantBits,
                         ::testing::Values(8, 12, 16, 20, 24));

TEST(Quantize, TensorInplaceAndCopy) {
  Tensor t({3}, std::vector<float>{0.51f, -0.49f, 100.0f});
  const FixedFormat f{8, 4};
  const Tensor q = quantized(t, f);
  EXPECT_FLOAT_EQ(q.at(0), 0.5f);
  EXPECT_FLOAT_EQ(q.at(2), 7.9375f);
  EXPECT_FLOAT_EQ(t.at(0), 0.51f);  // original untouched
  quantize_tensor_inplace(t, f);
  EXPECT_FLOAT_EQ(t.at(0), 0.5f);
}

std::uint32_t bits_of(float v) {
  std::uint32_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

TEST(Quantize, VectorKernelMatchesScalarOracleBitForBit) {
  // quantize_inplace rounds blocks of 8 in float lanes and the tail with
  // quantize_value, in double; every element must come out as
  // quantize_value's bits, for every width of the paper's schemes, the
  // widths whose largest value 2^(bits-1) - 1 float cannot hold (25 bits
  // still can), and every input class.
  using limits = std::numeric_limits<float>;
  std::vector<FixedFormat> formats;
  for (const int bits : {8, 16, 20, 24, 32}) {
    formats.push_back(activation_format(bits, 4));
    if (bits > 9) formats.push_back(activation_format(bits, 8));
  }
  for (const int bits : {8, 16, 20, 24, 25, 26, 32, 33, 48, 63}) {
    formats.push_back(FixedFormat{bits, 0});
    formats.push_back(FixedFormat{bits, bits - 1});
  }
  Rng rng(44);
  for (const FixedFormat& f : formats) {
    const auto step = static_cast<float>(f.step());
    std::vector<float> values = {
        limits::infinity(), -limits::infinity(), limits::quiet_NaN(),
        -limits::quiet_NaN(), 0.0f, -0.0f, limits::denorm_min(),
        -limits::denorm_min(), 1e-40f, -1e-40f, limits::min(), -limits::min(),
        limits::max(), -limits::max(), 1e30f, -1e30f,
        static_cast<float>(f.max_value()) + step / 2,
        static_cast<float>(f.min_value()) - step / 2,
        static_cast<float>(f.max_value()) * 3,
        static_cast<float>(f.min_value()) * 3};
    for (const double edge : {f.max_value(), f.min_value()})  // neighbours
      for (const float to : {-limits::infinity(), limits::infinity()})
        values.push_back(std::nextafter(static_cast<float>(edge), to));
    for (int k = -6; k <= 6; ++k)  // exact half-step ties, odd and even
      values.push_back((static_cast<float>(k) + 0.5f) * step);
    const double range = 2.0 * f.max_value();
    for (int i = 0; i < 200; ++i)
      values.push_back(static_cast<float>(rng.uniform(-range, range)));
    for (int i = 0; i < 50; ++i)
      values.push_back(static_cast<float>(rng.uniform(-4.0, 4.0) * f.step()));

    const auto check = [&](std::size_t begin, std::size_t n) {
      const auto first = values.begin() + static_cast<std::ptrdiff_t>(begin);
      std::vector<float> x(first, first + static_cast<std::ptrdiff_t>(n));
      quantize_inplace(x.data(), static_cast<std::int64_t>(n), f);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(bits_of(x[i]), bits_of(quantize_value(values[begin + i], f)))
            << "format (" << f.bits << ", " << f.frac_bits << "), value "
            << values[begin + i] << ", length " << n;
    };
    check(0, values.size());
    // Lengths 0-9: tail only, one block, one block plus a tail; every value
    // passes through both the kernel and the tail.
    for (std::size_t n = 0; n <= 9; ++n)
      for (std::size_t begin = 0; begin + n <= values.size(); ++begin)
        check(begin, n);
  }
}

TEST(FormatFactories, ActivationAndWeightFormats) {
  const FixedFormat a = activation_format(16, 4);
  EXPECT_EQ(a.bits, 16);
  EXPECT_EQ(a.frac_bits, 11);
  EXPECT_THROW(activation_format(8, 8), InvalidArgument);
  Tensor w({2}, std::vector<float>{0.3f, -0.7f});  // max < 1 -> 0 int bits
  const FixedFormat wf = weight_format_for(w, 8);
  EXPECT_EQ(wf.frac_bits, 7);
  Tensor w2({2}, std::vector<float>{3.5f, -0.7f});  // needs 2 int bits
  EXPECT_EQ(weight_format_for(w2, 8).frac_bits, 5);
}

TEST(Fixed, IntegerMatchesFakeQuant) {
  // The Fixed value type and quantize_value must agree on construction.
  const FixedFormat f{12, 8};
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const float x = static_cast<float>(rng.uniform(-7.0, 7.0));
    EXPECT_FLOAT_EQ(Fixed(x, f).to_float(), quantize_value(x, f));
  }
}

TEST(Fixed, AdditionAndSaturation) {
  const FixedFormat f{8, 4};
  const Fixed a(3.0f, f), b(4.0f, f);
  EXPECT_FLOAT_EQ((a + b).to_float(), 7.0f);
  const Fixed c(7.0f, f), d(5.0f, f);
  EXPECT_FLOAT_EQ((c + d).to_float(), 7.9375f);  // saturated
}

TEST(Fixed, MultiplicationRequantizes) {
  const FixedFormat f{16, 8};
  const Fixed a(1.5f, f), b(2.25f, f);
  EXPECT_NEAR((a * b).to_float(), 3.375f, f.step());
  // Product of small values rounds toward the grid.
  const Fixed s1(0.00390625f, f), s2(0.5f, f);
  EXPECT_NEAR((s1 * s2).to_float(), 0.00390625f * 0.5f, f.step());
}

TEST(Fixed, MultiplicationMatchesNearbyintExhaustively) {
  // Regression: the old negative-tie handling (`wide + half - 1 >> shift`)
  // rounded -0.5-step products toward -inf while quantize_value rounds ties
  // to even, so the integer accelerator path disagreed with tensor
  // quantization on exactly those products. Sweep every representable pair
  // for several small widths; products of these magnitudes are exact in
  // float, so quantize_value of the real product is the ground truth.
  for (const auto& f : {FixedFormat{4, 2}, FixedFormat{5, 3}, FixedFormat{6, 3},
                        FixedFormat{6, 5}}) {
    const std::int64_t lo = -(std::int64_t{1} << (f.bits - 1));
    const std::int64_t hi = (std::int64_t{1} << (f.bits - 1)) - 1;
    for (std::int64_t ra = lo; ra <= hi; ++ra) {
      for (std::int64_t rb = lo; rb <= hi; ++rb) {
        const float av = static_cast<float>(static_cast<double>(ra) * f.step());
        const float bv = static_cast<float>(static_cast<double>(rb) * f.step());
        const Fixed a(av, f), b(bv, f);
        ASSERT_EQ(a.raw(), ra);
        ASSERT_EQ(b.raw(), rb);
        const float product = av * bv;  // exact: few mantissa bits
        EXPECT_FLOAT_EQ((a * b).to_float(), quantize_value(product, f))
            << "bits=" << f.bits << " frac=" << f.frac_bits << " a=" << av
            << " b=" << bv;
      }
    }
  }
}

TEST(Fixed, MultiplicationNegativeTieRoundsToEven) {
  // The smallest concrete disagreement case: with 2 fractional bits,
  // (-0.25) * 0.5 = -0.125 = -0.5 steps, a tie, which must round to the
  // even raw value 0, not to -1 (-0.25).
  const FixedFormat f{4, 2};
  const Fixed a(-0.25f, f), b(0.5f, f);
  EXPECT_EQ((a * b).raw(), 0);
  EXPECT_FLOAT_EQ((a * b).to_float(), quantize_value(-0.125f, f));
}

TEST(Fixed, MixedFormatAddThrows) {
  const Fixed a(1.0f, FixedFormat{8, 4});
  const Fixed b(1.0f, FixedFormat{8, 5});
  EXPECT_THROW(a + b, InvalidArgument);
}

TEST(Scheme, PaperLevels) {
  const auto levels = QuantScheme::paper_levels();
  ASSERT_EQ(levels.size(), 6u);
  EXPECT_TRUE(levels[0].is_float);
  EXPECT_EQ(levels[1].op_bits, 24);
  EXPECT_EQ(levels[3].op_bits, 16);
  // Table III: hybrids keep weights at 8 bits and softmax at 24.
  EXPECT_EQ(levels[4].weight_bits, 8);
  EXPECT_EQ(levels[4].softmax_bits, 24);
  EXPECT_EQ(levels[4].op_bits, 20);
  EXPECT_EQ(levels[5].op_bits, 16);
  EXPECT_THROW(QuantScheme::uniform(4), InvalidArgument);
}

TEST(RelativeQuantError, ZeroForIdentical) {
  Tensor a({4}, std::vector<float>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(relative_quant_error(a, a), 0.0);
  Tensor b = a;
  b.at(0) = 1.1f;
  EXPECT_NEAR(relative_quant_error(a, b), 0.1 / 4.0, 1e-6);
}

class QuantizedModel : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(42);
    model_ = std::make_unique<models::TinyVbf>(
        models::TinyVbfConfig::test(8, 16), rng);
    Rng drng(43);
    input_ = Tensor({10, 16, 8});
    for (auto& v : input_.data())
      v = static_cast<float>(drng.uniform(-1.0, 1.0));
    reference_ = model_->infer(input_);
  }

  std::unique_ptr<models::TinyVbf> model_;
  Tensor input_;
  Tensor reference_;
};

TEST_F(QuantizedModel, FloatSchemeIsExact) {
  // Float scheme = the same engine with no rounding hook: same bits.
  const QuantizedTinyVbf q(*model_, QuantScheme::float_reference());
  const Tensor out = q.infer(input_);
  ASSERT_EQ(out.shape(), reference_.shape());
  EXPECT_EQ(std::memcmp(out.raw(), reference_.raw(),
                        static_cast<std::size_t>(out.size()) * sizeof(float)),
            0)
      << "max diff " << max_abs_diff(out, reference_);
}

TEST(QuantizedTiles, Hybrid2FrameEqualsItsSlicesRunOneByOne) {
  // Every fixed-point stage is per depth row, so a 130-row frame (tiles of
  // 64, 64 and 2 rows) must equal its 64-row slices, and its single rows,
  // each run on its own.
  Rng rng(45);
  const models::TinyVbf model(models::TinyVbfConfig::test(32, 64), rng);
  const QuantizedTinyVbf q(model, QuantScheme::hybrid2());
  Rng drng(46);
  Tensor x({130, 64, 32});
  for (auto& v : x.data()) v = static_cast<float>(drng.uniform(-1.0, 1.0));
  const Tensor whole = q.infer(x);
  for (const std::int64_t slice : {64, 1}) {
    for (std::int64_t z0 = 0; z0 < 130; z0 += slice) {
      const std::int64_t z1 = std::min<std::int64_t>(z0 + slice, 130);
      const Tensor part = q.infer(slice0(x, z0, z1));
      const Tensor expected = slice0(whole, z0, z1);
      ASSERT_EQ(std::memcmp(part.raw(), expected.raw(),
                            static_cast<std::size_t>(part.size()) *
                                sizeof(float)),
                0)
          << "rows [" << z0 << ", " << z1 << ")";
    }
  }
}

TEST(QuantizedTiles, Hybrid2RowLoaderEqualsTensorOverload) {
  // At paper width the engine loads 8-row slices, rounding each at the
  // intermediate width as it arrives: the loader overload equals the tensor
  // overload bit for bit over 71 rows (tiles of 64 and 7).
  Rng rng(47);
  const models::TinyVbf model(models::TinyVbfConfig::paper(), rng);
  const QuantizedTinyVbf q(model, QuantScheme::hybrid2());
  Rng drng(48);
  Tensor x({71, 128, 128});
  for (auto& v : x.data()) v = static_cast<float>(drng.uniform(-2.0, 2.0));
  const float s = 0.45f;
  const std::int64_t row = 128 * 128;
  const Tensor got =
      q.infer(x.shape(), [&](std::int64_t z0, std::int64_t rows, float* out) {
        for (std::int64_t i = 0; i < rows * row; ++i)
          out[i] = x.raw()[z0 * row + i] * s;
      });
  const Tensor want = q.infer(x, s);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.raw(), want.raw(),
                        static_cast<std::size_t>(got.size()) * sizeof(float)),
            0);
}

TEST_F(QuantizedModel, ErrorShrinksWithWiderDatapath) {
  // The mechanism behind Tables IV/V: 24/20-bit ~ float, 16-bit degraded.
  double prev_err = 1e9;
  for (int bits : {12, 16, 20, 24}) {
    const QuantizedTinyVbf q(*model_, QuantScheme::uniform(bits));
    const double err = relative_quant_error(reference_, q.infer(input_));
    EXPECT_LT(err, prev_err * 1.5) << bits << " bits";
    prev_err = err;
  }
  const QuantizedTinyVbf q24(*model_, QuantScheme::uniform(24));
  EXPECT_LT(relative_quant_error(reference_, q24.infer(input_)), 5e-3);
  const QuantizedTinyVbf q12(*model_, QuantScheme::uniform(12));
  EXPECT_GT(relative_quant_error(reference_, q12.infer(input_)), 1e-3);
}

TEST_F(QuantizedModel, HybridsTrackTheirOpWidth) {
  const QuantizedTinyVbf h1(*model_, QuantScheme::hybrid1());
  const QuantizedTinyVbf h2(*model_, QuantScheme::hybrid2());
  const double e1 = relative_quant_error(reference_, h1.infer(input_));
  const double e2 = relative_quant_error(reference_, h2.infer(input_));
  EXPECT_LT(e1, 0.2);
  EXPECT_LE(e1, e2 * 1.5);  // hybrid-1 (20-bit ops) at least as good
}

TEST_F(QuantizedModel, WeightStorageShrinksWithHybrid) {
  const QuantizedTinyVbf f(*model_, QuantScheme::float_reference());
  const QuantizedTinyVbf h2(*model_, QuantScheme::hybrid2());
  EXPECT_EQ(h2.weight_storage_bits() * 4, f.weight_storage_bits());
}

TEST_F(QuantizedModel, RejectsWrongShape) {
  const QuantizedTinyVbf q(*model_, QuantScheme::hybrid1());
  EXPECT_THROW(q.infer(Tensor({10, 16, 4})), InvalidArgument);
}

}  // namespace
}  // namespace tvbf::quant
