// Equivalence suite for the blocked kernel layer (src/kernels): the tiled
// GEMM and conv2d kernels must match the preserved naive `*_reference`
// implementations across odd shapes — non-multiple-of-tile sizes, single
// channels, 1x1 and 5x5 kernels — and the parallelized backward kernels
// must agree with both the serial references and finite differences. The
// row reductions (max |x|, softmax, layer norm) and the ToF gather, in both
// its forms, must equal their scalar oracles bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "kernels/quantize.hpp"
#include "kernels/reduce.hpp"
#include "kernels/tof_gather.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/tof.hpp"

namespace tvbf::kernels {
namespace {

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

/// Max |a - b| relative to max |b| over raw buffers.
float rel_err(const Tensor& a, const Tensor& b) {
  float m = 0.0f, scale = 0.0f;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a.raw()[i] - b.raw()[i]));
    scale = std::max(scale, std::fabs(b.raw()[i]));
  }
  return scale > 0.0f ? m / scale : m;
}

// ---- GEMM ------------------------------------------------------------------

class GemmShapes : public ::testing::TestWithParam<
                       std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(GemmShapes, BlockedMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor c({m, n}), ref({m, n});
  gemm_rows(a.raw(), b.raw(), c.raw(), m, k, n, 0, m);
  gemm_reference_rows(a.raw(), b.raw(), ref.raw(), m, k, n, 0, m);
  EXPECT_LT(rel_err(c, ref), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 7, 1},
                      std::tuple{3, 5, 2}, std::tuple{4, 16, 16},
                      std::tuple{5, 3, 9}, std::tuple{7, 13, 17},
                      std::tuple{8, 8, 8}, std::tuple{13, 1, 13},
                      std::tuple{17, 31, 15}, std::tuple{33, 65, 33},
                      std::tuple{64, 64, 64}, std::tuple{65, 127, 129},
                      std::tuple{128, 128, 128}, std::tuple{100, 300, 24}));

TEST(Gemm, AccumulateAddsOntoExistingOutput) {
  Rng rng(7);
  const std::int64_t m = 9, k = 21, n = 13;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor c = random_tensor({m, n}, rng);
  Tensor expected = c;
  gemm_rows(a.raw(), b.raw(), c.raw(), m, k, n, 0, m, /*accumulate=*/true);
  Tensor prod({m, n});
  gemm_reference_rows(a.raw(), b.raw(), prod.raw(), m, k, n, 0, m);
  add_inplace(expected, prod);
  EXPECT_LT(rel_err(c, expected), 1e-5f);
}

TEST(Gemm, RowRangeTouchesOnlyItsRows) {
  Rng rng(8);
  const std::int64_t m = 11, k = 17, n = 19;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor c({m, n}, 42.0f);
  gemm_rows(a.raw(), b.raw(), c.raw(), m, k, n, 3, 8);
  Tensor ref({m, n});
  gemm_reference_rows(a.raw(), b.raw(), ref.raw(), m, k, n, 0, m);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      if (i < 3 || i >= 8)
        EXPECT_FLOAT_EQ(c.at(i, j), 42.0f) << i << "," << j;
      else
        EXPECT_NEAR(c.at(i, j), ref.at(i, j), 1e-4f) << i << "," << j;
    }
}

TEST(Gemm, ThreadedGemmMatchesReference) {
  Rng rng(9);
  const std::int64_t m = 93, k = 71, n = 55;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor c({m, n}), ref({m, n});
  gemm(a.raw(), b.raw(), c.raw(), m, k, n);
  gemm_reference_rows(a.raw(), b.raw(), ref.raw(), m, k, n, 0, m);
  EXPECT_LT(rel_err(c, ref), 1e-5f);
}

TEST(Gemm, NtMatchesReferenceWithExplicitTranspose) {
  for (const auto& [m, k, n] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 1, 1}, {3, 8, 5}, {7, 16, 4}, {13, 31, 17}, {32, 64, 32}}) {
    Rng rng(static_cast<std::uint64_t>(m + k + n));
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor bt = random_tensor({n, k}, rng);  // rhs stored transposed
    Tensor c({m, n});
    gemm_nt_rows(a.raw(), bt.raw(), c.raw(), m, k, n, 0, m);
    const Tensor b = transpose(bt);  // (k, n)
    Tensor ref({m, n});
    gemm_reference_rows(a.raw(), b.raw(), ref.raw(), m, k, n, 0, m);
    EXPECT_LT(rel_err(c, ref), 1e-5f) << m << "x" << k << "x" << n;
  }
}

TEST(Gemm, TnAccumulateMatchesReferenceWithExplicitTranspose) {
  for (const auto& [m, k, n] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 1, 1}, {5, 3, 7}, {16, 9, 8}, {31, 13, 27}, {64, 32, 48}}) {
    Rng rng(static_cast<std::uint64_t>(m * 3 + k * 5 + n * 7));
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({m, n}, rng);
    Tensor c({k, n}, 0.5f);  // nonzero start: must accumulate
    Tensor expected = c;
    gemm_tn_accumulate(a.raw(), b.raw(), c.raw(), m, k, n);
    const Tensor at = transpose(a);  // (k, m)
    Tensor prod({k, n});
    gemm_reference_rows(at.raw(), b.raw(), prod.raw(), k, m, n, 0, k);
    add_inplace(expected, prod);
    EXPECT_LT(rel_err(c, expected), 1e-5f) << m << "x" << k << "x" << n;
  }
}

// ---- conv2d ----------------------------------------------------------------

// (H, W, Ci, kh, kw, Co): odd spatial sizes, single channels, 1x1 and 5x5.
const Conv2dShape kConvShapes[] = {
    {.H = 1, .W = 1, .Ci = 1, .kh = 1, .kw = 1, .Co = 1},
    {.H = 5, .W = 3, .Ci = 1, .kh = 3, .kw = 3, .Co = 1},
    {.H = 7, .W = 9, .Ci = 2, .kh = 1, .kw = 1, .Co = 5},
    {.H = 9, .W = 7, .Ci = 3, .kh = 5, .kw = 5, .Co = 2},
    {.H = 13, .W = 11, .Ci = 4, .kh = 3, .kw = 5, .Co = 3},
    {.H = 17, .W = 16, .Ci = 8, .kh = 3, .kw = 3, .Co = 8},
    {.H = 4, .W = 32, .Ci = 16, .kh = 5, .kw = 3, .Co = 4},
    {.H = 2, .W = 2, .Ci = 1, .kh = 5, .kw = 5, .Co = 1},  // kernel > image
};

class ConvShapes : public ::testing::TestWithParam<Conv2dShape> {};

TEST_P(ConvShapes, ForwardMatchesReference) {
  const Conv2dShape s = GetParam();
  Rng rng(static_cast<std::uint64_t>(s.H * 100 + s.W * 10 + s.Ci));
  const Tensor in = random_tensor({s.H, s.W, s.Ci}, rng);
  const Tensor k = random_tensor({s.kh, s.kw, s.Ci, s.Co}, rng);
  Tensor out({s.H, s.W, s.Co}), ref({s.H, s.W, s.Co});
  conv2d_same_forward(in.raw(), k.raw(), out.raw(), s);
  conv2d_same_forward_reference(in.raw(), k.raw(), ref.raw(), s);
  EXPECT_LT(rel_err(out, ref), 1e-5f);
}

TEST_P(ConvShapes, BackwardKernelMatchesReference) {
  const Conv2dShape s = GetParam();
  Rng rng(static_cast<std::uint64_t>(s.H + s.W * 7 + s.Co * 3));
  const Tensor in = random_tensor({s.H, s.W, s.Ci}, rng);
  const Tensor dy = random_tensor({s.H, s.W, s.Co}, rng);
  Tensor gk({s.kh, s.kw, s.Ci, s.Co}, 0.25f);  // nonzero: must accumulate
  Tensor ref = gk;
  conv2d_same_backward_kernel(in.raw(), dy.raw(), gk.raw(), s);
  conv2d_same_backward_kernel_reference(in.raw(), dy.raw(), ref.raw(), s);
  EXPECT_LT(rel_err(gk, ref), 1e-4f);
}

TEST_P(ConvShapes, BackwardInputMatchesReference) {
  const Conv2dShape s = GetParam();
  Rng rng(static_cast<std::uint64_t>(s.H * 3 + s.W + s.Ci * 11));
  const Tensor k = random_tensor({s.kh, s.kw, s.Ci, s.Co}, rng);
  const Tensor dy = random_tensor({s.H, s.W, s.Co}, rng);
  Tensor gx({s.H, s.W, s.Ci}, -0.5f);
  Tensor ref = gx;
  conv2d_same_backward_input(k.raw(), dy.raw(), gx.raw(), s);
  conv2d_same_backward_input_reference(k.raw(), dy.raw(), ref.raw(), s);
  EXPECT_LT(rel_err(gx, ref), 1e-4f);
}

TEST_P(ConvShapes, BackwardBiasSumsEveryPixel) {
  const Conv2dShape s = GetParam();
  Rng rng(static_cast<std::uint64_t>(s.Co * 13 + s.W));
  const Tensor dy = random_tensor({s.H, s.W, s.Co}, rng);
  Tensor gb({s.Co}, 1.0f);
  conv2d_same_backward_bias(dy.raw(), gb.raw(), s);
  for (std::int64_t co = 0; co < s.Co; ++co) {
    double expected = 1.0;
    for (std::int64_t p = 0; p < s.H * s.W; ++p)
      expected += dy.raw()[p * s.Co + co];
    EXPECT_NEAR(gb.at(co), expected, 1e-4) << "co=" << co;
  }
}

INSTANTIATE_TEST_SUITE_P(OddShapes, ConvShapes,
                         ::testing::ValuesIn(kConvShapes));

// ---- finite-difference checks of the parallelized backward kernels --------

TEST(ConvGradients, BackwardKernelsMatchFiniteDifferences) {
  // Independent of the serial references: perturb one element at a time and
  // compare the parallel backward kernels against central differences of
  // the forward pass under the loss L = sum(out * w) with fixed weights w.
  const Conv2dShape s{.H = 5, .W = 4, .Ci = 2, .kh = 3, .kw = 3, .Co = 2};
  Rng rng(99);
  Tensor in = random_tensor({s.H, s.W, s.Ci}, rng);
  Tensor k = random_tensor({s.kh, s.kw, s.Ci, s.Co}, rng);
  const Tensor w = random_tensor({s.H, s.W, s.Co}, rng);

  auto loss = [&] {
    Tensor out({s.H, s.W, s.Co});
    conv2d_same_forward(in.raw(), k.raw(), out.raw(), s);
    double acc = 0.0;
    for (std::int64_t i = 0; i < out.size(); ++i)
      acc += static_cast<double>(out.raw()[i]) * w.raw()[i];
    return acc;
  };

  // dL/dout = w feeds both backward kernels.
  Tensor gk({s.kh, s.kw, s.Ci, s.Co});
  Tensor gx({s.H, s.W, s.Ci});
  conv2d_same_backward_kernel(in.raw(), w.raw(), gk.raw(), s);
  conv2d_same_backward_input(k.raw(), w.raw(), gx.raw(), s);

  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < k.size(); ++i) {
    const float orig = k.raw()[i];
    k.raw()[i] = orig + eps;
    const double up = loss();
    k.raw()[i] = orig - eps;
    const double down = loss();
    k.raw()[i] = orig;
    EXPECT_NEAR(gk.raw()[i], (up - down) / (2.0 * eps), 2e-2)
        << "kernel grad " << i;
  }
  for (std::int64_t i = 0; i < in.size(); ++i) {
    const float orig = in.raw()[i];
    in.raw()[i] = orig + eps;
    const double up = loss();
    in.raw()[i] = orig - eps;
    const double down = loss();
    in.raw()[i] = orig;
    EXPECT_NEAR(gx.raw()[i], (up - down) / (2.0 * eps), 2e-2)
        << "input grad " << i;
  }
}

// ---- row reductions --------------------------------------------------------

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// Same bits, where any NaN matches any NaN (which operand's NaN an
/// arithmetic op propagates is the compiler's choice of operand order).
bool same_value(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0 ||
         (std::isnan(a) && std::isnan(b));
}

/// First index where the buffers differ by same_value, or -1.
std::int64_t first_mismatch(const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i)
    if (!same_value(a[i], b[i])) return i;
  return -1;
}

/// Depth rows [z0, z1) of the cube, assembled through slot_offset from the
/// slot tables tof_slot_rows_compact_rf (or its scalar form) writes. Both
/// forms must write the same whole tables.
std::vector<float> slot_rows_cube(const CompactRfGather& g, std::int64_t z0,
                                  std::int64_t z1, float scale, bool scalar) {
  const std::int64_t row = slot_row_floats(g.nx, g.nch);
  const auto size = static_cast<std::size_t>((z1 - z0) * row);
  std::vector<float> tables(size, 1.0f), twin(size, 2.0f);
  (scalar ? tof_slot_rows_compact_rf_scalar : tof_slot_rows_compact_rf)(
      g, z0, z1, scale, tables.data());
  (scalar ? tof_slot_rows_compact_rf : tof_slot_rows_compact_rf_scalar)(
      g, z0, z1, scale, twin.data());
  EXPECT_EQ(first_mismatch(tables.data(), twin.data(),
                           static_cast<std::int64_t>(size)),
            -1)
      << "the AVX2 and scalar slot tables differ, nch " << g.nch;
  std::vector<float> cube(static_cast<std::size_t>((z1 - z0) * g.nx * g.nch));
  for (std::int64_t r = 0; r < z1 - z0; ++r)
    for (std::int64_t ix = 0; ix < g.nx; ++ix)
      for (std::int64_t c = 0; c < g.nch; ++c)
        cube[static_cast<std::size_t>((r * g.nx + ix) * g.nch + c)] =
            tables[static_cast<std::size_t>(r * row +
                                            slot_offset(g.nx, ix, c))];
  return cube;
}

/// A row of one of the kinds the oracle tests cover.
enum class RowKind { kNormal, kWide, kOffset, kEqual, kSpecials };

std::vector<float> make_rows(RowKind kind, std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  const float equal = static_cast<float>(rng.normal());
  for (float& x : v) {
    switch (kind) {
      case RowKind::kNormal:
        x = static_cast<float>(rng.normal());
        break;
      case RowKind::kWide:  // exp's whole range, through underflow
        x = static_cast<float>(rng.uniform(-150.0, 40.0));
        break;
      case RowKind::kOffset:  // a spread small next to the mean's rounding
        x = static_cast<float>(1000.0 + rng.normal(0.0, 1e-3));
        break;
      case RowKind::kEqual:
        x = equal;
        break;
      case RowKind::kSpecials: {
        const float specials[] = {kInf, -kInf, kNaN, -0.0f, 1e-40f};
        const std::uint64_t pick = rng.uniform_index(12);
        x = pick < 5 ? specials[pick] : static_cast<float>(rng.normal());
        break;
      }
    }
  }
  return v;
}

TEST(ReduceKernels, MaxAbsEqualsStdMaxLoop) {
  // Lengths 0-40 from every offset, then longer runs through the unrolled
  // loop, at NaN densities from sparse to almost all.
  const float specials[] = {kNaN,   -kNaN,   kInf,    -kInf,  -0.0f, 0.0f,
                            1e-45f, -1e-45f, 3e-39f, -3e-39f, 1.5f, -2.5f};
  Rng rng(31);
  const auto std_max_loop = [](const float* p, std::int64_t n) {
    float m = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(p[i]));
    return m;
  };
  for (int trial = 0; trial < 32; ++trial) {
    const double nan_share = 0.05 + 0.3 * (trial % 4);
    std::vector<float> buf(400);
    for (float& x : buf) {
      const double u = rng.uniform();
      x = u < nan_share       ? kNaN
          : u < nan_share + 0.2 ? specials[rng.uniform_index(12)]
                                : static_cast<float>(rng.normal(0.0, 4.0));
    }
    const auto check = [&](std::int64_t offset, std::int64_t n) {
      const float* p = buf.data() + offset;
      const float want = std_max_loop(p, n);
      const float got = max_abs(p, n);
      const float scalar = max_abs_scalar(p, n);
      ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << "trial " << trial << ", offset " << offset << ", n " << n;
      ASSERT_EQ(std::memcmp(&scalar, &want, sizeof(float)), 0);
    };
    for (std::int64_t offset = 0; offset <= 40; ++offset)
      for (std::int64_t n = 0; n <= 40; ++n) check(offset, n);
    for (std::int64_t offset = 0; offset < 8; ++offset)
      for (std::int64_t n = 41; n <= 392; n += 7) check(offset, n);
  }
}

TEST(ReduceKernels, SoftmaxEqualsScalarOracleBitForBit) {
  Rng rng(32);
  constexpr std::int64_t kRows = 9;
  for (std::int64_t w = 1; w <= 40; ++w) {
    for (const RowKind kind : {RowKind::kNormal, RowKind::kWide,
                               RowKind::kOffset, RowKind::kEqual,
                               RowKind::kSpecials}) {
      std::vector<float> x = make_rows(kind, kRows * w, rng);
      if (kind == RowKind::kSpecials) {  // plus one row of only -inf
        std::fill(x.begin(), x.begin() + w, -kInf);
      }
      std::vector<float> got(x.size()), want(x.size());
      softmax_rows(x.data(), got.data(), kRows, w);
      softmax_rows_scalar(x.data(), want.data(), kRows, w);
      EXPECT_EQ(first_mismatch(got.data(), want.data(), kRows * w), -1)
          << "width " << w << ", kind " << static_cast<int>(kind);
      std::vector<float> in_place = x;
      softmax_rows(in_place.data(), in_place.data(), kRows, w);
      EXPECT_EQ(first_mismatch(in_place.data(), want.data(), kRows * w), -1)
          << "in place, width " << w;
    }
  }
}

TEST(ReduceKernels, SoftmaxExpEqualsScalarAcrossItsRange) {
  // Rows [0, x1, ..., x8] sweep x over [-104.5, 0] at 1e-5 spacing; the
  // vector and scalar exp must agree on every value (below about -17 each
  // output is the exp itself, as the denominator rounds to 1).
  constexpr std::int64_t kWidth = 9;
  std::vector<float> x;
  float v = 0.0f;
  while (v > -104.5f) {
    x.push_back(0.0f);
    for (std::int64_t j = 1; j < kWidth; ++j, v -= 1e-5f) x.push_back(v);
  }
  const auto rows = static_cast<std::int64_t>(x.size()) / kWidth;
  std::vector<float> got(x.size()), want(x.size());
  softmax_rows(x.data(), got.data(), rows, kWidth);
  softmax_rows_scalar(x.data(), want.data(), rows, kWidth);
  const std::int64_t at = first_mismatch(got.data(), want.data(), rows * kWidth);
  EXPECT_EQ(at, -1) << "x " << x[static_cast<std::size_t>(std::max<std::int64_t>(at, 0))];
}

TEST(ReduceKernels, SoftmaxRowsWithMinusInfinityZeroItsEntries) {
  for (const std::int64_t w : {5, 16, 32, 37}) {
    std::vector<float> x(static_cast<std::size_t>(w));
    for (std::int64_t j = 0; j < w; ++j)
      x[static_cast<std::size_t>(j)] = j % 3 == 1 ? -kInf : 0.1f * j;
    std::vector<float> y(x.size());
    softmax_rows(x.data(), y.data(), 1, w);
    double total = 0.0;
    for (std::int64_t j = 0; j < w; ++j) {
      const float v = y[static_cast<std::size_t>(j)];
      if (j % 3 == 1) {
        EXPECT_EQ(v, 0.0f);
      }
      EXPECT_FALSE(std::isnan(v));
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-6) << "width " << w;
  }
}

TEST(ReduceKernels, LayerNormEqualsScalarOracleBitForBit) {
  // Rows run eight at a time across lanes plus a scalar tail, so row
  // counts cover a partial group, whole groups and both together.
  Rng rng(33);
  for (std::int64_t w = 1; w <= 40; ++w) {
    std::vector<float> gamma(static_cast<std::size_t>(w)),
        beta(static_cast<std::size_t>(w));
    for (float& g : gamma) g = static_cast<float>(rng.normal(1.0, 0.5));
    for (float& b : beta) b = static_cast<float>(rng.normal());
    for (const std::int64_t rows : {1, 7, 8, 16, 19}) {
      for (const RowKind kind : {RowKind::kNormal, RowKind::kWide,
                                 RowKind::kOffset, RowKind::kEqual,
                                 RowKind::kSpecials}) {
        const std::vector<float> x = make_rows(kind, rows * w, rng);
        const auto n = static_cast<std::size_t>(rows * w);
        std::vector<float> y(n), xhat(n), istd(static_cast<std::size_t>(rows));
        std::vector<float> y0(n), xhat0(n), istd0(istd.size());
        layer_norm_rows(x.data(), y.data(), rows, w, gamma.data(),
                        beta.data(), 1e-5f, xhat.data(), istd.data());
        layer_norm_rows_scalar(x.data(), y0.data(), rows, w, gamma.data(),
                               beta.data(), 1e-5f, xhat0.data(),
                               istd0.data());
        const std::string where = "width " + std::to_string(w) + ", rows " +
                                  std::to_string(rows) + ", kind " +
                                  std::to_string(static_cast<int>(kind));
        EXPECT_EQ(first_mismatch(y.data(), y0.data(), rows * w), -1) << where;
        EXPECT_EQ(first_mismatch(xhat.data(), xhat0.data(), rows * w), -1)
            << where;
        EXPECT_EQ(first_mismatch(istd.data(), istd0.data(), rows), -1)
            << where;
        std::vector<float> in_place = x;
        layer_norm_rows(in_place.data(), in_place.data(), rows, w,
                        gamma.data(), beta.data(), 1e-5f, nullptr, nullptr);
        EXPECT_EQ(first_mismatch(in_place.data(), y0.data(), rows * w), -1)
            << "in place, " << where;
      }
    }
  }
}

TEST(ReduceKernels, ExpWithinStatedErrorOfStdExp) {
  // Relative error against exp in double over [-104, 0]; where exp(x) is
  // below FLT_MIN the result is a denormal, off by at most one 2^-149 step
  // more.
  constexpr double kRelBound = 1.5e-7;
  constexpr double kDenormStep = 0x1p-149;
  double worst = 0.0;
  for (float x = 0.0f; x >= -104.0f; x -= 1.3e-5f) {
    const double want = std::exp(static_cast<double>(x));
    const double got = exp_nonpositive(x);
    const double err = std::fabs(got - want);
    const double slack = want < std::numeric_limits<float>::min() ? kDenormStep : 0.0;
    ASSERT_LE(err, kRelBound * want + slack) << "x " << x;
    if (slack == 0.0) worst = std::max(worst, err / want);
  }
  EXPECT_GT(worst, 0.0);
  EXPECT_EQ(exp_nonpositive(0.0f), 1.0f);
  EXPECT_EQ(exp_nonpositive(-0.0f), 1.0f);
}

TEST(ReduceKernels, ExpUnderflowsToZeroAndPassesNaN) {
  EXPECT_EQ(exp_nonpositive(-kInf), 0.0f);
  EXPECT_EQ(exp_nonpositive(-104.01f), 0.0f);
  EXPECT_EQ(exp_nonpositive(-1e30f), 0.0f);
  EXPECT_EQ(exp_nonpositive(-std::numeric_limits<float>::max()), 0.0f);
  const float denormal = exp_nonpositive(-100.0f);  // 3.7e-44
  EXPECT_GT(denormal, 0.0f);
  EXPECT_LT(denormal, std::numeric_limits<float>::min());
  EXPECT_TRUE(std::isnan(exp_nonpositive(kNaN)));
}

// ---- ToF gather ------------------------------------------------------------

/// Serial reference for one gather entry, re-deriving the plan encoding
/// (kTofOutOfRange -> 0, idx >= 0 -> interior interp, biased -> linear edge).
float reference_gather(const float* line, std::int32_t idx, float frac,
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

/// Pixel (iz, ix)'s first entry in g's table, from g's layout.
std::int64_t first_entry(const TofGather& g, std::int64_t iz,
                         std::int64_t ix) {
  return iz * g.row_stride + g.col0 + ix * g.col_step;
}

/// One out plane of g computed entry by entry with reference_gather.
std::vector<float> reference_plane(const TofGather& g, const float* lines) {
  std::vector<float> out(static_cast<std::size_t>(g.nz * g.nx * g.nch));
  for (std::int64_t iz = 0; iz < g.nz; ++iz)
    for (std::int64_t ix = 0; ix < g.nx; ++ix)
      for (std::int64_t e = 0; e < g.nch; ++e) {
        const std::int64_t p = first_entry(g, iz, ix) + e;
        out[static_cast<std::size_t>((iz * g.nx + ix) * g.nch + e)] =
            reference_gather(lines + e * g.nsamples, g.idx[p], g.frac[p],
                             g.interp);
      }
  return out;
}

class TofGatherTest : public ::testing::TestWithParam<Interp> {};

TEST_P(TofGatherTest, MatchesSerialReferenceWithAllEncodings) {
  const Interp interp = GetParam();
  Rng rng(6);
  const std::int64_t nz = 7, nx = 5, nch = 3, nsamples = 64;
  const Tensor lines_re = random_tensor({nch, nsamples}, rng);
  const Tensor lines_im = random_tensor({nch, nsamples}, rng);
  const std::int64_t entries = nz * nx * nch;
  std::vector<std::int32_t> idx(static_cast<std::size_t>(entries));
  std::vector<float> frac(static_cast<std::size_t>(entries));
  for (std::int64_t i = 0; i < entries; ++i) {
    frac[static_cast<std::size_t>(i)] =
        static_cast<float>(0.5 + 0.4 * std::sin(static_cast<double>(i)));
    switch (i % 4) {
      case 0:  // interior sample (cubic needs idx-1 .. idx+2 in range)
        idx[static_cast<std::size_t>(i)] =
            static_cast<std::int32_t>(1 + i % (nsamples - 3));
        break;
      case 1:  // out of range -> zero
        idx[static_cast<std::size_t>(i)] = kTofOutOfRange;
        break;
      default:  // biased linear fallback at the edges
        idx[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
            kTofLinearBias - i % (nsamples - 1));
        break;
    }
  }

  Tensor out_re({nz, nx, nch}), out_im({nz, nx, nch});
  tof_gather({.idx = idx.data(),
              .frac = frac.data(),
              .row_stride = nx * nch,
              .col0 = 0,
              .col_step = nch,
              .lines_re = lines_re.raw(),
              .lines_im = lines_im.raw(),
              .out_re = out_re.raw(),
              .out_im = out_im.raw(),
              .nz = nz,
              .nx = nx,
              .nch = nch,
              .nsamples = nsamples,
              .interp = interp});

  for (std::int64_t i = 0; i < entries; ++i) {
    const std::int64_t e = i % nch;
    const auto u = static_cast<std::size_t>(i);
    EXPECT_EQ(out_re.raw()[i],
              reference_gather(lines_re.raw() + e * nsamples, idx[u], frac[u],
                               interp))
        << "entry " << i;
    EXPECT_EQ(out_im.raw()[i],
              reference_gather(lines_im.raw() + e * nsamples, idx[u], frac[u],
                               interp))
        << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Interps, TofGatherTest,
                         ::testing::Values(Interp::kLinear, Interp::kCubic));

TEST(TofGatherKernel, Avx2EqualsScalarOracleBitForBit) {
  // Both table layouts, channel counts around the 4-lane step, both planes;
  // entries at the last sample pair, out of range and biased, fracs of
  // exactly 0 and 1; samples holding NaN and +-inf.
  Rng rng(41);
  const std::int64_t nz = 3, nx = 7, n = 40;
  const float specials[] = {kNaN, kInf, -kInf};
  for (const bool compact : {false, true}) {
    for (const std::int64_t nch : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 128}) {
      std::vector<float> re(static_cast<std::size_t>(nch * n));
      std::vector<float> im(re.size());
      for (std::vector<float>* lines : {&re, &im})
        for (float& x : *lines)
          x = rng.uniform() < 0.03 ? specials[rng.uniform_index(3)]
                                   : static_cast<float>(rng.normal());
      const std::int64_t width = compact ? nx + nch - 1 : nx * nch;
      std::vector<std::int32_t> idx(static_cast<std::size_t>(nz * width));
      std::vector<float> frac(idx.size());
      for (std::size_t i = 0; i < idx.size(); ++i) {
        const auto base = static_cast<std::int32_t>(rng.uniform_index(n - 1));
        const auto f = static_cast<float>(rng.uniform());
        switch (rng.uniform_index(6)) {
          case 0: idx[i] = base; frac[i] = f; break;
          case 1: idx[i] = static_cast<std::int32_t>(n - 2); frac[i] = f; break;
          case 2: idx[i] = kTofOutOfRange; frac[i] = 0.0f; break;
          case 3: idx[i] = kTofLinearBias - base; frac[i] = f; break;
          case 4: idx[i] = base; frac[i] = 0.0f; break;
          default: idx[i] = base; frac[i] = 1.0f; break;
        }
      }
      for (const bool analytic : {false, true}) {
        const std::size_t cube = static_cast<std::size_t>(nz * nx * nch);
        std::vector<float> got_re(cube), got_im(cube), want_re(cube),
            want_im(cube);
        TofGather g{.idx = idx.data(),
                    .frac = frac.data(),
                    .row_stride = width,
                    .col0 = compact ? nx - 1 : 0,
                    .col_step = compact ? -1 : nch,
                    .lines_re = re.data(),
                    .lines_im = analytic ? im.data() : nullptr,
                    .out_re = got_re.data(),
                    .out_im = analytic ? got_im.data() : nullptr,
                    .nz = nz,
                    .nx = nx,
                    .nch = nch,
                    .nsamples = n};
        tof_gather(g);
        g.out_re = want_re.data();
        g.out_im = analytic ? want_im.data() : nullptr;
        tof_gather_scalar(g);
        const auto cube_n = static_cast<std::int64_t>(cube);
        const std::vector<float> ref_re = reference_plane(g, re.data());
        EXPECT_EQ(first_mismatch(got_re.data(), want_re.data(), cube_n), -1)
            << "compact " << compact << ", nch " << nch;
        EXPECT_EQ(first_mismatch(want_re.data(), ref_re.data(), cube_n), -1)
            << "compact " << compact << ", nch " << nch;
        if (analytic) {
          const std::vector<float> ref_im = reference_plane(g, im.data());
          EXPECT_EQ(first_mismatch(got_im.data(), want_im.data(), cube_n), -1)
              << "compact " << compact << ", nch " << nch << ", imag";
          EXPECT_EQ(first_mismatch(want_im.data(), ref_im.data(), cube_n), -1)
              << "compact " << compact << ", nch " << nch << ", imag";
        }
      }
    }
  }
}

TEST(TofGatherKernel, LerpRoundsBothProductsBeforeTheAdd) {
  // Sample pairs that nearly cancel at a tiny frac f: (1 - f) is inexact in
  // double there, so a fused (1 - f) * a + f * b would round differently in
  // some entries. Entry (ix, e) reads the pair at 2 * ix of line e.
  Rng rng(43);
  const std::int64_t nx = 64, nch = 8, n = 2 * nx;
  std::vector<float> lines(static_cast<std::size_t>(nch * n));
  std::vector<std::int32_t> idx(static_cast<std::size_t>(nx * nch));
  std::vector<float> frac(idx.size());
  std::int64_t sensitive = 0;
  for (std::int64_t ix = 0; ix < nx; ++ix) {
    for (std::int64_t e = 0; e < nch; ++e) {
      const auto i = static_cast<std::size_t>(ix * nch + e);
      const auto f = static_cast<float>(std::ldexp(
          1.0 + rng.uniform(), -30 - static_cast<int>(rng.uniform_index(12))));
      const auto a = static_cast<float>(rng.normal());
      const auto b = static_cast<float>(-a * (1.0 - f) / f *
                                        (1.0 + std::ldexp(rng.normal(), -22)));
      float* pair = lines.data() + e * n + 2 * ix;
      pair[0] = a;
      pair[1] = b;
      idx[i] = static_cast<std::int32_t>(2 * ix);
      frac[i] = f;
      const auto fused = static_cast<float>(std::fma(
          1.0 - f, static_cast<double>(a), static_cast<double>(f) * b));
      if (fused != reference_gather(pair, 0, f, Interp::kLinear)) ++sensitive;
    }
  }
  ASSERT_GT(sensitive, 0) << "no entry tells a fused lerp apart";
  std::vector<float> got(idx.size()), scalar(idx.size());
  TofGather g{.idx = idx.data(),
              .frac = frac.data(),
              .row_stride = nx * nch,
              .col0 = 0,
              .col_step = nch,
              .lines_re = lines.data(),
              .out_re = got.data(),
              .nz = 1,
              .nx = nx,
              .nch = nch,
              .nsamples = n};
  tof_gather(g);
  g.out_re = scalar.data();
  tof_gather_scalar(g);
  const std::vector<float> want = reference_plane(g, lines.data());
  const auto count = static_cast<std::int64_t>(want.size());
  EXPECT_EQ(first_mismatch(got.data(), want.data(), count), -1);
  EXPECT_EQ(first_mismatch(scalar.data(), want.data(), count), -1);

  // The compact-RF form: slot j reads sample rows 2j and 2j + 1, whose
  // channels all hold such pairs for the slot's frac.
  const std::int64_t cx = 8, cch = 16, slots = cx + cch - 1;
  std::vector<float> rf(static_cast<std::size_t>(2 * slots * cch));
  std::vector<std::int32_t> cidx(static_cast<std::size_t>(slots));
  std::vector<float> cfrac(cidx.size());
  std::vector<float> slot_values(rf.size() / 2);
  sensitive = 0;
  for (std::int64_t j = 0; j < slots; ++j) {
    const auto f = static_cast<float>(std::ldexp(
        1.0 + rng.uniform(), -30 - static_cast<int>(rng.uniform_index(12))));
    cidx[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(2 * j);
    cfrac[static_cast<std::size_t>(j)] = f;
    for (std::int64_t e = 0; e < cch; ++e) {
      const auto a = static_cast<float>(rng.normal());
      const auto b = static_cast<float>(-a * (1.0 - f) / f *
                                        (1.0 + std::ldexp(rng.normal(), -22)));
      rf[static_cast<std::size_t>(2 * j * cch + e)] = a;
      rf[static_cast<std::size_t>((2 * j + 1) * cch + e)] = b;
      const float pair[] = {a, b};
      const float v = reference_gather(pair, 0, f, Interp::kLinear);
      slot_values[static_cast<std::size_t>(j * cch + e)] = v;
      const auto fused = static_cast<float>(std::fma(
          1.0 - f, static_cast<double>(a), static_cast<double>(f) * b));
      if (fused != v) ++sensitive;
    }
  }
  ASSERT_GT(sensitive, 0) << "no compact entry tells a fused lerp apart";
  std::vector<float> cube(static_cast<std::size_t>(cx * cch));
  float peak = 0.0f;
  for (std::int64_t ix = 0; ix < cx; ++ix)
    for (std::int64_t e = 0; e < cch; ++e) {
      const float v =
          slot_values[static_cast<std::size_t>((cx - 1 - ix + e) * cch + e)];
      cube[static_cast<std::size_t>(ix * cch + e)] = v;
      peak = std::max(peak, std::fabs(v));
    }
  const CompactRfGather cg{cidx.data(), cfrac.data(), rf.data(), 1, cx, cch};
  const std::vector<float> rows = slot_rows_cube(cg, 0, 1, 1.0f, false);
  const std::vector<float> scalar_rows = slot_rows_cube(cg, 0, 1, 1.0f, true);
  const auto cube_n = static_cast<std::int64_t>(cube.size());
  EXPECT_EQ(first_mismatch(rows.data(), cube.data(), cube_n), -1);
  EXPECT_EQ(first_mismatch(scalar_rows.data(), cube.data(), cube_n), -1);
  EXPECT_EQ(tof_peak_compact_rf(cg), peak);
  EXPECT_EQ(tof_peak_compact_rf_scalar(cg), peak);
}

/// A compact linear table for the compact-RF form: nz rows of nx + nch - 1
/// slots, entries at the last sample pair, out of range, biased, and with
/// fracs of exactly 0 and 1.
/// Sample pairs start at `min_base` or later.
void random_compact_table(Rng& rng, std::int64_t nz, std::int64_t nx,
                          std::int64_t nch, std::int64_t n,
                          std::vector<std::int32_t>& idx,
                          std::vector<float>& frac,
                          std::int64_t min_base = 0) {
  idx.resize(static_cast<std::size_t>(nz * (nx + nch - 1)));
  frac.resize(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const auto base = static_cast<std::int32_t>(
        min_base + rng.uniform_index(n - 1 - min_base));
    const auto f = static_cast<float>(rng.uniform());
    switch (rng.uniform_index(6)) {
      case 0: idx[i] = base; frac[i] = f; break;
      case 1: idx[i] = static_cast<std::int32_t>(n - 2); frac[i] = f; break;
      case 2: idx[i] = kTofOutOfRange; frac[i] = 0.0f; break;
      case 3: idx[i] = kTofLinearBias - base; frac[i] = f; break;
      case 4: idx[i] = base; frac[i] = 0.0f; break;
      default: idx[i] = base; frac[i] = 1.0f; break;
    }
  }
}

TEST(TofGatherKernel, CompactRfRowsEqualScalarAndTheCubeTimesScale) {
  // The compact-RF rows over sample-major RF against tof_gather over the
  // same table and the transposed (channel-major) lines: the cube apply()
  // writes. Channel counts around the 8-lane step; samples holding NaN and
  // +-inf; scales 1 and 0.37; the whole cube and uneven row ranges.
  Rng rng(47);
  const std::int64_t nz = 5, nx = 7, n = 40;
  const float specials[] = {kNaN, kInf, -kInf};
  for (const std::int64_t nch : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 128}) {
    std::vector<float> rf(static_cast<std::size_t>(n * nch));
    for (float& x : rf)
      x = rng.uniform() < 0.03 ? specials[rng.uniform_index(3)]
                               : static_cast<float>(rng.normal());
    std::vector<float> lines(rf.size());
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t e = 0; e < nch; ++e)
        lines[static_cast<std::size_t>(e * n + i)] =
            rf[static_cast<std::size_t>(i * nch + e)];
    std::vector<std::int32_t> idx;
    std::vector<float> frac;
    random_compact_table(rng, nz, nx, nch, n, idx, frac);
    const std::int64_t plane = nx * nch, count = nz * plane;
    std::vector<float> cube(static_cast<std::size_t>(count));
    tof_gather({.idx = idx.data(),
                .frac = frac.data(),
                .row_stride = nx + nch - 1,
                .col0 = nx - 1,
                .col_step = -1,
                .lines_re = lines.data(),
                .out_re = cube.data(),
                .nz = nz,
                .nx = nx,
                .nch = nch,
                .nsamples = n});
    const CompactRfGather g{idx.data(), frac.data(), rf.data(), nz, nx, nch};
    for (const float scale : {1.0f, 0.37f}) {
      std::vector<float> want(cube.size());
      for (std::size_t i = 0; i < cube.size(); ++i) want[i] = cube[i] * scale;
      const std::vector<float> got = slot_rows_cube(g, 0, nz, scale, false);
      const std::vector<float> scalar = slot_rows_cube(g, 0, nz, scale, true);
      EXPECT_EQ(first_mismatch(got.data(), want.data(), count), -1)
          << "nch " << nch << ", scale " << scale;
      EXPECT_EQ(first_mismatch(scalar.data(), want.data(), count), -1)
          << "nch " << nch << ", scale " << scale;
      // Rows [1, 3) and [3, 5): each range starts at its own buffer.
      for (const std::int64_t z0 : {1, 3}) {
        const std::vector<float> part =
            slot_rows_cube(g, z0, z0 + 2, scale, false);
        EXPECT_EQ(first_mismatch(part.data(), want.data() + z0 * plane,
                                 2 * plane),
                  -1)
            << "nch " << nch << ", rows from " << z0;
      }
    }
  }
}

TEST(TofGatherKernel, CompactRfPeakEqualsMaxAbsOfTheCube) {
  // Slot j feeds only the channels whose pixel lies on the grid. The first
  // slot of each row (channel 0 only) reads sample rows 0 and 1, the last
  // (channel nch - 1 only) rows 2 and 3, and no other slot reads those
  // rows; their other channels hold 1e30, which the peak must not see.
  // NaN samples are skipped, +-inf ones win.
  Rng rng(53);
  const std::int64_t nz = 4, nx = 6, n = 30;
  for (const std::int64_t nch : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 128}) {
    for (const float special : {0.0f, kNaN, kInf}) {
      std::vector<float> rf(static_cast<std::size_t>(n * nch));
      for (float& x : rf)
        x = special != 0.0f && rng.uniform() < 0.03
                ? (rng.uniform() < 0.5 ? special : -special)
                : static_cast<float>(rng.normal());
      for (std::int64_t e = 0; e < nch; ++e) {
        float* at = rf.data() + e;
        if (e != 0) at[0] = at[nch] = 1e30f;
        if (e != nch - 1) at[2 * nch] = at[3 * nch] = 1e30f;
      }
      std::vector<float> lines(rf.size());
      for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t e = 0; e < nch; ++e)
          lines[static_cast<std::size_t>(e * n + i)] =
              rf[static_cast<std::size_t>(i * nch + e)];
      std::vector<std::int32_t> idx;
      std::vector<float> frac;
      random_compact_table(rng, nz, nx, nch, n, idx, frac, /*min_base=*/4);
      const std::int64_t width = nx + nch - 1;
      for (std::int64_t iz = 0; iz < nz; ++iz) {
        idx[static_cast<std::size_t>(iz * width)] = 0;
        idx[static_cast<std::size_t>(iz * width + width - 1)] = 2;
      }
      std::vector<float> cube(static_cast<std::size_t>(nz * nx * nch));
      tof_gather({.idx = idx.data(),
                  .frac = frac.data(),
                  .row_stride = nx + nch - 1,
                  .col0 = nx - 1,
                  .col_step = -1,
                  .lines_re = lines.data(),
                  .out_re = cube.data(),
                  .nz = nz,
                  .nx = nx,
                  .nch = nch,
                  .nsamples = n});
      const float want =
          max_abs(cube.data(), static_cast<std::int64_t>(cube.size()));
      if (special != kInf) {
        ASSERT_LT(want, 1e29f) << "the cube read a 1e30";
      }
      const CompactRfGather g{idx.data(), frac.data(), rf.data(),
                              nz,         nx,          nch};
      const float got = tof_peak_compact_rf(g);
      const float scalar = tof_peak_compact_rf_scalar(g);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << "nch " << nch << ", special " << special << ": " << got
          << " vs " << want;
      EXPECT_EQ(std::memcmp(&scalar, &want, sizeof(float)), 0)
          << "nch " << nch << ", special " << special << ": " << scalar
          << " vs " << want;
    }
  }
}


// ---- Bounded peak, slot rows ------------------------------------------------

/// The RF cube a compact table gives through tof_gather (what
/// TofPlan::apply runs), from sample-major RF.
std::vector<float> applied_cube(const std::vector<std::int32_t>& idx,
                                const std::vector<float>& frac,
                                const std::vector<float>& rf, std::int64_t nz,
                                std::int64_t nx, std::int64_t nch,
                                std::int64_t n) {
  std::vector<float> lines(rf.size());
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t e = 0; e < nch; ++e)
      lines[static_cast<std::size_t>(e * n + i)] =
          rf[static_cast<std::size_t>(i * nch + e)];
  std::vector<float> cube(static_cast<std::size_t>(nz * nx * nch));
  tof_gather({.idx = idx.data(),
              .frac = frac.data(),
              .row_stride = nx + nch - 1,
              .col0 = nx - 1,
              .col_step = -1,
              .lines_re = lines.data(),
              .out_re = cube.data(),
              .nz = nz,
              .nx = nx,
              .nch = nch,
              .nsamples = n});
  return cube;
}

TEST(TofGatherKernel, BoundedPeakEqualsMaxAbsOnAdversarialRf) {
  // The bounded peak skips slots whose bound max(R[base], R[base + 1])
  // cannot exceed the running max; each case must still give max_abs of
  // the applied cube, in both forms.
  const std::int64_t nz = 3, nx = 6, n = 24;
  for (const std::int64_t nch : {5, 12, 16}) {
    const std::int64_t width = nx + nch - 1;
    enum Case { kHalfLerp, kTail, kSpecials, kZero, kAllBoundsHigh };
    for (const Case c : {kHalfLerp, kTail, kSpecials, kZero, kAllBoundsHigh}) {
      Rng rng(61 + static_cast<std::uint64_t>(c));
      std::vector<float> rf(static_cast<std::size_t>(n * nch));
      for (float& x : rf)
        x = c == kZero ? 0.0f : static_cast<float>(rng.normal(0.0, 0.1));
      std::vector<std::int32_t> idx;
      std::vector<float> frac;
      random_compact_table(rng, nz, nx, nch, n, idx, frac);
      const auto at = [&](std::int64_t s, std::int64_t e) -> float& {
        return rf[static_cast<std::size_t>(s * nch + e)];
      };
      switch (c) {
        case kHalfLerp:
          // One slot reads 1e30 beside -1e30 at f = 0.5: its bound is the
          // largest, its values are 0. No other slot reads rows 20, 21.
          for (std::int64_t i = 0; i < nz * width; ++i)
            if (idx[static_cast<std::size_t>(i)] >= 19 ||
                kTofLinearBias - idx[static_cast<std::size_t>(i)] >= 19)
              idx[static_cast<std::size_t>(i)] = 2;
          idx[static_cast<std::size_t>(width + 4)] = 20;
          frac[static_cast<std::size_t>(width + 4)] = 0.5f;
          for (std::int64_t e = 0; e < nch; ++e) {
            at(20, e) = 1e30f;
            at(21, e) = -1e30f;
          }
          break;
        case kTail:
          // The peak sits in the last channel, past the 8-lane body.
          at(idx[static_cast<std::size_t>(width - 1)] >= 0
                 ? idx[static_cast<std::size_t>(width - 1)]
                 : kTofLinearBias - idx[static_cast<std::size_t>(width - 1)],
             nch - 1) = 50.0f;
          idx[static_cast<std::size_t>(width - 1)] = 7;
          frac[static_cast<std::size_t>(width - 1)] = 0.0f;
          at(7, nch - 1) = 50.0f;
          break;
        case kSpecials:
          for (const float special : {kNaN, kInf, -kInf, kNaN})
            at(static_cast<std::int64_t>(rng.uniform_index(n)),
               static_cast<std::int64_t>(rng.uniform_index(nch))) = special;
          break;
        case kZero:
          break;
        case kAllBoundsHigh:
          break;  // below, on its own grid
      }
      std::int64_t grid_nx = nx;
      if (c == kAllBoundsHigh) {
        // One column: slot j feeds channel j alone. Each slot reads its own
        // row pair, which holds a 1e6 in another channel, so every bound is
        // 1e6 and every slot is evaluated.
        grid_nx = 1;
        rf.assign(static_cast<std::size_t>((2 * nz * nch + 1) * nch), 0.0f);
        idx.resize(static_cast<std::size_t>(nz * nch));
        frac.resize(idx.size());
        for (std::int64_t i = 0; i < nz * nch; ++i) {
          const std::int64_t e = i % nch;
          idx[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(2 * i);
          frac[static_cast<std::size_t>(i)] =
              static_cast<float>(rng.uniform());
          for (std::int64_t s = 2 * i; s < 2 * i + 2; ++s) {
            rf[static_cast<std::size_t>(s * nch + e)] =
                static_cast<float>(rng.normal());
            rf[static_cast<std::size_t>(s * nch + (e + 1) % nch)] =
                nch > 1 ? 1e6f : rf[static_cast<std::size_t>(s * nch + e)];
          }
        }
      }
      const std::vector<float> cube = applied_cube(
          idx, frac, rf, nz, grid_nx, nch,
          static_cast<std::int64_t>(rf.size()) / nch);
      const float want =
          max_abs(cube.data(), static_cast<std::int64_t>(cube.size()));
      if (c == kAllBoundsHigh) {
        ASSERT_LT(want, 1e5f) << "nch " << nch;
      }
      const CompactRfGather g{idx.data(), frac.data(), rf.data(),
                              nz,         grid_nx,     nch};
      const float got = tof_peak_compact_rf(g);
      const float scalar = tof_peak_compact_rf_scalar(g);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << "nch " << nch << ", case " << c << ": " << got << " vs " << want;
      EXPECT_EQ(std::memcmp(&scalar, &want, sizeof(float)), 0)
          << "nch " << nch << ", case " << c << ": " << scalar << " vs "
          << want;
    }
  }
}

TEST(TofGatherKernel, SlotRowsAssembleTheAppliedCube) {
  // The cube read through slot_offset from the slot tables equals the
  // applied cube times the scale, for channel counts around and past the
  // 8-lane groups (the last group padded).
  Rng rng(67);
  const std::int64_t nz = 3, nx = 9, n = 50;
  for (const std::int64_t nch :
       {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 52, 128}) {
    std::vector<float> rf(static_cast<std::size_t>(n * nch));
    for (float& x : rf) x = static_cast<float>(rng.normal());
    std::vector<std::int32_t> idx;
    std::vector<float> frac;
    random_compact_table(rng, nz, nx, nch, n, idx, frac);
    const std::vector<float> cube =
        applied_cube(idx, frac, rf, nz, nx, nch, n);
    const CompactRfGather g{idx.data(), frac.data(), rf.data(), nz, nx, nch};
    for (const float scale : {1.0f, 0.37f}) {
      std::vector<float> want(cube.size());
      for (std::size_t i = 0; i < cube.size(); ++i) want[i] = cube[i] * scale;
      const auto count = static_cast<std::int64_t>(want.size());
      EXPECT_EQ(first_mismatch(slot_rows_cube(g, 0, nz, scale, false).data(),
                               want.data(), count),
                -1)
          << "nch " << nch << ", scale " << scale;
      EXPECT_EQ(first_mismatch(slot_rows_cube(g, 0, nz, scale, true).data(),
                               want.data(), count),
                -1)
          << "nch " << nch << ", scale " << scale;
    }
  }
}

// ---- ToF plan entry encoder -------------------------------------------------

/// One entry as tof_plan.hpp documents it: t outside [0, n - 1] reads 0;
/// else idx = floor(t) and frac = float(t - idx), but idx = n - 2 with
/// frac = 1 at t = n - 1; a cubic plan biases an entry without four
/// samples around it.
void reference_entry(double t, std::int64_t n, Interp interp,
                     std::int32_t& idx, float& frac) {
  idx = kTofOutOfRange;
  frac = 0.0f;
  if (!(t >= 0.0 && t <= static_cast<double>(n - 1))) return;
  const double floor_t = std::floor(t);
  const bool last = floor_t == static_cast<double>(n - 1);
  const auto base = static_cast<std::int32_t>(last ? n - 2 : floor_t);
  frac = last ? 1.0f : static_cast<float>(t - floor_t);
  const bool four = base >= 1 && base + 2 <= n - 1;
  idx = interp == Interp::kCubic && !four ? kTofLinearBias - base : base;
}

TEST(TofEncodeKernel, Avx2EqualsScalarTwinAndTwoWayDelayReference) {
  // fs = 2^25 scales t exactly, so a t0 of tau - m / fs puts an entry of
  // delay tau at t = m exactly: t0s put chosen entries at n - 1 and one
  // ulp below it, and the rest of the pixels before, inside and past the
  // window. At t = 0 exactly (t0 = tau), a delay one ulp off reads as a
  // frac of about 1e-13 or as out of range, so each channel of one pixel
  // takes that turn. Channel counts around the 4-lane step, columns on and
  // off the elements, steered both ways, linear and cubic. c = 1480: at
  // 1540, x / c and x * (1 / c) differ for only 0.6% of x.
  const double fs = 0x1p25, c = 1480.0, pitch = 0.3e-3;
  const std::int64_t n = 200, nz = 6, nx = 5;
  std::int64_t before = 0, past = 0, at_zero = 0, at_last = 0,
               below_last = 0, interior = 0, biased = 0;
  for (const std::int64_t nch :
       {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 52, 128}) {
    std::vector<double> xs(static_cast<std::size_t>(nch));
    for (std::int64_t e = 0; e < nch; ++e)
      xs[static_cast<std::size_t>(e)] =
          (static_cast<double>(e) - static_cast<double>(nch - 1) / 2) * pitch;
    for (const double angle : {0.0, 0.14, -0.14}) {
      const double sin_th = std::sin(angle), cos_th = std::cos(angle);
      const double tx_offset =
          sin_th >= 0.0 ? xs.front() * sin_th : xs.back() * sin_th;
      for (const bool on_elements : {true, false}) {
        const auto x_at = [&](std::int64_t ix) {
          return on_elements ? xs[static_cast<std::size_t>(ix % nch)]
                             : xs.front() + (0.77 * static_cast<double>(ix) +
                                             0.13) * pitch;
        };
        const auto z_at = [](std::int64_t iz) {
          return 5e-3 + 1.1e-3 * static_cast<double>(iz);
        };
        const auto tau = [&](std::int64_t iz, std::int64_t ix,
                             std::int64_t e) {
          return us::two_way_delay(x_at(ix), z_at(iz),
                                   xs[static_cast<std::size_t>(e)], sin_th,
                                   cos_th, tx_offset, c);
        };
        std::vector<double> t0s = {8e-6, 1.0, -1.0,
                                   std::numeric_limits<double>::quiet_NaN()};
        for (const std::int64_t e : {std::int64_t{0}, nch - 1}) {
          const double d = tau(2, 3, e);
          t0s.push_back(d - static_cast<double>(n - 1) / fs);
          t0s.push_back(
              d - std::nextafter(static_cast<double>(n - 1), 0.0) / fs);
        }
        for (std::int64_t e = 0; e < nch; ++e) t0s.push_back(tau(2, 3, e));
        for (const double t0 : t0s) {
          for (const Interp interp : {Interp::kLinear, Interp::kCubic}) {
            for (std::int64_t iz = 0; iz < nz; ++iz) {
              for (std::int64_t ix = 0; ix < nx; ++ix) {
                const double x = x_at(ix), z = z_at(iz);
                const TofEncode p{xs.data(), nch, x, z,
                                  (z * cos_th + x * sin_th - tx_offset) / c,
                                  c, t0, fs, n, interp};
                std::vector<std::int32_t> idx(xs.size(), 7), idx_twin(idx),
                    idx_ref(idx);
                std::vector<float> frac(xs.size(), 7.0f), frac_twin(frac),
                    frac_ref(frac);
                tof_encode(p, idx.data(), frac.data());
                tof_encode_scalar(p, idx_twin.data(), frac_twin.data());
                for (std::int64_t e = 0; e < nch; ++e) {
                  const auto u = static_cast<std::size_t>(e);
                  const double t = (tau(iz, ix, e) - t0) * fs;
                  reference_entry(t, n, interp, idx_ref[u], frac_ref[u]);
                  before += t < 0.0;
                  at_zero += t == 0.0;
                  past += t > static_cast<double>(n - 1);
                  at_last += t == static_cast<double>(n - 1);
                  below_last +=
                      t == std::nextafter(static_cast<double>(n - 1), 0.0);
                  interior += interp == Interp::kCubic && idx_ref[u] >= 0;
                  biased += idx_ref[u] <= kTofLinearBias;
                }
                const auto where = [&] {
                  return "nch " + std::to_string(nch) + ", angle " +
                         std::to_string(angle) + ", on " +
                         std::to_string(on_elements) + ", t0 " +
                         std::to_string(t0) + ", cubic " +
                         std::to_string(interp == Interp::kCubic) +
                         ", pixel " + std::to_string(iz) + "," +
                         std::to_string(ix);
                };
                EXPECT_EQ(idx, idx_twin) << where();
                EXPECT_EQ(idx_twin, idx_ref) << where();
                EXPECT_EQ(first_mismatch(frac.data(), frac_twin.data(), nch),
                          -1)
                    << where();
                EXPECT_EQ(
                    first_mismatch(frac_twin.data(), frac_ref.data(), nch), -1)
                    << where();
              }
            }
          }
        }
      }
    }
  }
  // Every case the t0s aim at occurred.
  EXPECT_GT(before, 0);
  EXPECT_GT(past, 0);
  EXPECT_GT(at_zero, 0);
  EXPECT_GT(at_last, 0);
  EXPECT_GT(below_last, 0);
  EXPECT_GT(interior, 0);
  EXPECT_GT(biased, 0);
}

// ---- GEMM epilogue, indirect A ----------------------------------------------

TEST(Gemm, EpilogueEqualsSeparateBiasAndReluPasses) {
  // gemm + bias + ReLU in one pass against gemm, then + b, then
  // v > 0 ? v : 0: ragged tiles, two K blocks (k > 256), and outputs that
  // are -0 or NaN before the bias.
  for (const auto& [m, k, n] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 1, 1}, {5, 7, 3}, {9, 16, 17}, {13, 300, 24}, {33, 512, 16}}) {
    Rng rng(static_cast<std::uint64_t>(71 + m + k + n));
    Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({k, n}, rng);
    Tensor bias = random_tensor({n}, rng);
    bias.raw()[0] = -0.0f;
    std::fill_n(a.raw(), k, 0.0f);  // row 0 sums to 0 (-0 after a -0 bias)
    a.raw()[0] = -0.0f;
    if (m > 2) a.raw()[2 * k] = kNaN;  // row 2 sums to NaN
    for (const bool relu : {false, true}) {
      Tensor want({m, n}), got({m, n}, 7.0f), rows({m, n}, 7.0f);
      gemm(a.raw(), b.raw(), want.raw(), m, k, n);
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
          float& v = want.raw()[i * n + j];
          v += bias.raw()[j];
          if (relu) v = v > 0.0f ? v : 0.0f;
        }
      gemm(a.raw(), b.raw(), got.raw(), m, k, n, {bias.raw(), relu, {}});
      gemm_rows(a.raw(), b.raw(), rows.raw(), m, k, n, 0, m, false,
                {bias.raw(), relu, {}});
      EXPECT_EQ(first_mismatch(got.raw(), want.raw(), m * n), -1)
          << m << "x" << k << "x" << n << ", relu " << relu;
      EXPECT_EQ(first_mismatch(rows.raw(), want.raw(), m * n), -1)
          << m << "x" << k << "x" << n << ", relu " << relu;
    }
  }
}

TEST(Gemm, RoundingEpilogueEqualsSeparatePasses) {
  // gemm with a rounding epilogue against gemm, then quantize_inplace, + b,
  // quantize_inplace and ReLU. k of 100, 300 and 512 (one and two K
  // blocks) lets only the last block round; ragged m and n send the full
  // tiles through the vector micro-kernels and the edges through the
  // scalar one. Rows 0 and m - 1 copy B's row 0, whose sums are NaN,
  // +-inf, half-step ties and values at the clamp edges, and some biases
  // are half steps, so that + b ties as well.
  const FixedFormat fmt{16, 8};  // step 2^-8, range [-128, 128 - 2^-8]
  const float step = 0x1p-8f;
  const std::vector<float> specials = {
      kNaN, kInf, -kInf, 0.5f * step, -0.5f * step, 1.5f * step,
      -2.5f * step, 127.0f + 0.5f * step, 128.0f - step, 128.0f - 0.5f * step,
      128.0f, -128.0f, -128.0f - 0.5f * step, -129.0f, 1e30f, -0.0f};
  for (const auto& [m, k, n] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {13, 100, 24}, {9, 300, 17}, {33, 512, 16}, {6, 512, 37}}) {
    Rng rng(static_cast<std::uint64_t>(91 + m + k + n));
    Tensor a = random_tensor({m, k}, rng);
    Tensor b = random_tensor({k, n}, rng);
    Tensor bias = random_tensor({n}, rng);
    for (const std::int64_t i : {std::int64_t{0}, m - 1}) {
      std::fill_n(a.raw() + i * k, k, 0.0f);
      a.raw()[i * k] = 1.0f;
    }
    for (std::int64_t j = 0; j < n; ++j) {
      b.raw()[j] = specials[static_cast<std::size_t>(j) % specials.size()];
      if (j % 3 == 1) bias.raw()[j] = (j % 2 != 0 ? 0.5f : -0.5f) * step;
    }
    for (const bool with_bias : {false, true})
      for (const bool relu : {false, true}) {
        const float* bp = with_bias ? bias.raw() : nullptr;
        Tensor want({m, n}), got({m, n}, 7.0f), rows({m, n}, 7.0f);
        gemm(a.raw(), b.raw(), want.raw(), m, k, n);
        quantize_inplace(want.raw(), m * n, fmt);
        for (std::int64_t i = 0; i < m && with_bias; ++i)
          for (std::int64_t j = 0; j < n; ++j) want.raw()[i * n + j] += bp[j];
        quantize_inplace(want.raw(), m * n, fmt);
        for (std::int64_t i = 0; i < m * n && relu; ++i)
          want.raw()[i] = want.raw()[i] > 0.0f ? want.raw()[i] : 0.0f;
        gemm(a.raw(), b.raw(), got.raw(), m, k, n, {bp, relu, fmt});
        gemm_rows(a.raw(), b.raw(), rows.raw(), m, k, n, 0, m, false,
                  {bp, relu, fmt});
        const std::string where = std::to_string(m) + "x" +
                                  std::to_string(k) + "x" +
                                  std::to_string(n) + ", bias " +
                                  std::to_string(with_bias) + ", relu " +
                                  std::to_string(relu);
        EXPECT_EQ(first_mismatch(got.raw(), want.raw(), m * n), -1) << where;
        EXPECT_EQ(first_mismatch(rows.raw(), want.raw(), m * n), -1)
            << where;
      }
  }
}

TEST(Gemm, IndirectRowsEqualGemmOnTheGatheredA) {
  // A read through row pointers and column offsets (each row's columns
  // reversed and strided through a wider buffer) gives gemm_rows' bits on
  // the gathered copy, with no epilogue, a bias and ReLU, and a rounding
  // one.
  for (const auto& [m, k, n] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 1, 1}, {6, 9, 5}, {13, 40, 16}, {21, 300, 20}}) {
    Rng rng(static_cast<std::uint64_t>(73 + m + k + n));
    const Tensor src = random_tensor({m, 3 * k}, rng);
    const Tensor b = random_tensor({k, n}, rng);
    const Tensor bias = random_tensor({n}, rng);
    std::vector<const float*> rows;
    std::vector<std::int64_t> cols;
    Tensor gathered({m, k});
    for (std::int64_t i = 0; i < m; ++i) rows.push_back(src.raw() + i * 3 * k);
    for (std::int64_t p = 0; p < k; ++p) cols.push_back(3 * (k - 1 - p) + 1);
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t p = 0; p < k; ++p)
        gathered.raw()[i * k + p] = rows[i][cols[p]];
    for (const Epilogue& e :
         {Epilogue{}, Epilogue{bias.raw(), true, {}},
          Epilogue{bias.raw(), true, FixedFormat{16, 8}}}) {
      Tensor want({m, n}), got({m, n});
      gemm_rows(gathered.raw(), b.raw(), want.raw(), m, k, n, 0, m, false, e);
      gemm_indirect_rows(rows.data(), cols.data(), b.raw(), got.raw(), k, n,
                         0, m, e);
      EXPECT_EQ(first_mismatch(got.raw(), want.raw(), m * n), -1)
          << m << "x" << k << "x" << n;
    }
  }
}

// ---- Column softmax, attention block ---------------------------------------

TEST(ReduceKernels, SoftmaxColumnsEqualRowsOfTheTranspose) {
  Rng rng(79);
  for (const std::int64_t rows : {1, 3, 8, 13, 32, 40})
    for (const std::int64_t cols : {1, 7, 8, 13, 32})
      for (const RowKind kind : {RowKind::kNormal, RowKind::kWide,
                                 RowKind::kEqual, RowKind::kSpecials}) {
        const std::vector<float> x = make_rows(kind, rows * cols, rng);
        std::vector<float> t(x.size()), want(x.size());
        for (std::int64_t r = 0; r < rows; ++r)
          for (std::int64_t c = 0; c < cols; ++c)
            t[static_cast<std::size_t>(c * rows + r)] =
                x[static_cast<std::size_t>(r * cols + c)];
        softmax_rows_scalar(t.data(), t.data(), cols, rows);
        for (std::int64_t r = 0; r < rows; ++r)
          for (std::int64_t c = 0; c < cols; ++c)
            want[static_cast<std::size_t>(r * cols + c)] =
                t[static_cast<std::size_t>(c * rows + r)];
        std::vector<float> got = x, scalar = x;
        softmax_columns(got.data(), rows, cols);
        softmax_columns_scalar(scalar.data(), rows, cols);
        EXPECT_EQ(first_mismatch(got.data(), want.data(), rows * cols), -1)
            << rows << "x" << cols << ", kind " << static_cast<int>(kind);
        EXPECT_EQ(first_mismatch(scalar.data(), want.data(), rows * cols), -1)
            << rows << "x" << cols << ", kind " << static_cast<int>(kind);
      }
}

/// attention_block's reference: Q.K^T by gemm on copied bands, the scale,
/// softmax_rows, then gemm(P, V); with formats each result is rounded
/// through quantize_value, the softmax at its width and the rest at op's.
void reference_attention(const float* q, const float* k, const float* v,
                         std::int64_t ld, std::int64_t np, std::int64_t dk,
                         float scale,
                         const std::optional<DatapathFormats>& formats,
                         float* out) {
  std::vector<float> qb(static_cast<std::size_t>(np * dk)), kt(qb.size()),
      vb(qb.size()), s(static_cast<std::size_t>(np * np));
  for (std::int64_t i = 0; i < np; ++i)
    for (std::int64_t p = 0; p < dk; ++p) {
      qb[static_cast<std::size_t>(i * dk + p)] = q[i * ld + p];
      kt[static_cast<std::size_t>(p * np + i)] = k[i * ld + p];
      vb[static_cast<std::size_t>(i * dk + p)] = v[i * ld + p];
    }
  const auto round = [&](float* x, std::int64_t n, bool softmax) {
    for (std::int64_t i = 0; formats && i < n; ++i)
      x[i] = quantize_value(x[i], softmax ? formats->softmax : formats->op);
  };
  gemm(qb.data(), kt.data(), s.data(), np, dk, np);
  round(s.data(), np * np, false);
  for (float& x : s) x *= scale;
  round(s.data(), np * np, false);
  softmax_rows(s.data(), s.data(), np, np);
  round(s.data(), np * np, true);
  gemm(s.data(), vb.data(), out, np, np, dk);
  round(out, np * dk, false);
}

TEST(AttentionBlock, EqualsGemmSoftmaxGemmOnCopiedBands) {
  // Bands of a wider (np, 3 * dk) buffer; formats whose op grid some
  // scores overflow; a query row holding NaN and one holding +inf come out
  // all NaN, as through softmax_rows, when there is no rounding.
  const DatapathFormats fixed{{14, 8}, {16, 8}, {16, 12}};
  for (const std::int64_t np : {1, 4, 7, 13, 16, 32})
    for (const std::int64_t dk : {4, 8, 12})
      for (const bool rounded : {false, true})
        for (const bool special : {false, true}) {
          const std::optional<DatapathFormats> formats =
              rounded ? std::optional(fixed) : std::nullopt;
          Rng rng(static_cast<std::uint64_t>(83 + np * 16 + dk));
          const std::int64_t ld = 3 * dk;
          std::vector<float> qkv(static_cast<std::size_t>(np * ld));
          for (float& x : qkv) x = static_cast<float>(rng.normal(0.0, 2.0));
          const float* q = qkv.data();
          const float* k = q + dk;
          const float* v = k + dk;
          if (special && np > 2) {
            qkv[static_cast<std::size_t>(1 * ld + 0)] = kNaN;
            qkv[static_cast<std::size_t>(2 * ld + 1)] = kInf;
          }
          const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
          const std::int64_t ldo = dk + 3;
          std::vector<float> want(static_cast<std::size_t>(np * dk));
          reference_attention(q, k, v, ld, np, dk, scale, formats,
                              want.data());
          std::vector<float> work(
              static_cast<std::size_t>(attention_block_floats(np, dk)));
          for (const bool scalar : {false, true}) {
            std::vector<float> out(static_cast<std::size_t>(np * ldo), 5.0f);
            (scalar ? attention_block_scalar : attention_block)(
                q, k, v, ld, out.data(), ldo, np, dk, scale, work.data(),
                formats);
            for (std::int64_t i = 0; i < np; ++i) {
              EXPECT_EQ(first_mismatch(out.data() + i * ldo,
                                       want.data() + i * dk, dk),
                        -1)
                  << "np " << np << ", dk " << dk << ", row " << i
                  << (rounded ? ", rounded" : "") << (scalar ? ", scalar" : "");
              EXPECT_EQ(out[static_cast<std::size_t>(i * ldo + dk)], 5.0f);
              if (!rounded && special && np > 2 && (i == 1 || i == 2)) {
                for (std::int64_t c = 0; c < dk; ++c) {
                  EXPECT_TRUE(std::isnan(out[static_cast<std::size_t>(
                      i * ldo + c)]))
                      << "np " << np << ", dk " << dk << ", row " << i;
                }
              }
            }
          }
        }
}

}  // namespace
}  // namespace tvbf::kernels
