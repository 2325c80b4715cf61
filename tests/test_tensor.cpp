// Unit and property tests for the tensor container and kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "kernels/gemm.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf {
namespace {

Tensor random_tensor(Shape shape, Rng& rng, double sigma = 1.0) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = static_cast<float>(rng.normal(0.0, sigma));
  return t;
}

/// Naive reference matmul.
Tensor matmul_ref(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      c.at(i, j) = static_cast<float>(acc);
    }
  return c;
}

TEST(Shape, NumelAndToString) {
  EXPECT_EQ(numel({2, 3, 4}), 24);
  EXPECT_EQ(numel({}), 1);
  EXPECT_EQ(numel({0, 5}), 0);
  EXPECT_EQ(to_string({2, 3}), "[2, 3]");
  EXPECT_THROW(numel({-1, 2}), InvalidArgument);
}

TEST(Tensor, ConstructionAndFill) {
  Tensor t({2, 3}, 1.5f);
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.rank(), 2);
  for (float v : t.data()) EXPECT_FLOAT_EQ(v, 1.5f);
  t.fill(-2.0f);
  EXPECT_FLOAT_EQ(t.at(1, 2), -2.0f);
}

TEST(Tensor, ValueMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), InvalidArgument);
}

TEST(Tensor, RankLimit) {
  EXPECT_THROW(Tensor({1, 1, 1, 1, 1}), InvalidArgument);
}

TEST(Tensor, IndexingRoundTrip) {
  Tensor t({2, 3, 4});
  float v = 0.0f;
  for (std::int64_t i = 0; i < 2; ++i)
    for (std::int64_t j = 0; j < 3; ++j)
      for (std::int64_t k = 0; k < 4; ++k) t.at(i, j, k) = v++;
  EXPECT_FLOAT_EQ(t.flat(0), 0.0f);
  EXPECT_FLOAT_EQ(t.at(1, 2, 3), 23.0f);
  EXPECT_THROW(t.at(2, 0, 0), InvalidArgument);
  EXPECT_THROW(t.at(0, 0), InvalidArgument);  // rank mismatch
  EXPECT_THROW(t.flat(24), InvalidArgument);
}

TEST(Tensor, ReshapePreservesDataAndChecksNumel) {
  Tensor t({2, 6});
  for (std::int64_t i = 0; i < 12; ++i) t.flat(i) = static_cast<float>(i);
  const Tensor r = t.reshaped({3, 4});
  EXPECT_FLOAT_EQ(r.at(2, 3), 11.0f);
  EXPECT_THROW(t.reshaped({5, 5}), InvalidArgument);
}

TEST(TensorOps, ElementwiseAndShapesChecked) {
  Tensor a({2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor b({2, 2}, std::vector<float>{5, 6, 7, 8});
  EXPECT_FLOAT_EQ(add(a, b).at(1, 1), 12.0f);
  EXPECT_FLOAT_EQ(sub(a, b).at(0, 0), -4.0f);
  EXPECT_FLOAT_EQ(mul(a, b).at(0, 1), 12.0f);
  EXPECT_FLOAT_EQ(scale(a, 2.0f).at(1, 0), 6.0f);
  Tensor c({3});
  EXPECT_THROW(add(a, c), InvalidArgument);
}

TEST(TensorOps, InplaceVariants) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{10, 20, 30});
  add_inplace(a, b);
  EXPECT_FLOAT_EQ(a.at(2), 33.0f);
  axpy_inplace(a, -1.0f, b);
  EXPECT_FLOAT_EQ(a.at(2), 3.0f);
}

TEST(TensorOps, AddBiasBroadcastsOverRows) {
  Tensor a({2, 3}, std::vector<float>{0, 0, 0, 1, 1, 1});
  Tensor bias({3}, std::vector<float>{1, 2, 3});
  const Tensor y = add_bias(a, bias);
  EXPECT_FLOAT_EQ(y.at(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 2.0f);
  EXPECT_THROW(add_bias(a, Tensor({2})), InvalidArgument);
}

TEST(TensorOps, ReluAndTanh) {
  Tensor a({4}, std::vector<float>{-1, 0, 2, -3});
  const Tensor r = relu(a);
  EXPECT_FLOAT_EQ(r.at(0), 0.0f);
  EXPECT_FLOAT_EQ(r.at(2), 2.0f);
  const Tensor t = tanh_t(a);
  EXPECT_NEAR(t.at(2), std::tanh(2.0f), 1e-6);
}

TEST(TensorOps, Reductions) {
  Tensor a({4}, std::vector<float>{1, -2, 3, -4});
  EXPECT_FLOAT_EQ(sum(a), -2.0f);
  EXPECT_FLOAT_EQ(mean(a), -0.5f);
  EXPECT_FLOAT_EQ(min_value(a), -4.0f);
  EXPECT_FLOAT_EQ(max_value(a), 3.0f);
  EXPECT_FLOAT_EQ(max_abs(a), 4.0f);
  EXPECT_THROW(mean(Tensor({0})), InvalidArgument);
}

TEST(TensorOps, MatmulMatchesReference) {
  Rng rng(3);
  const Tensor a = random_tensor({7, 11}, rng);
  const Tensor b = random_tensor({11, 5}, rng);
  EXPECT_TRUE(allclose(matmul(a, b), matmul_ref(a, b), 1e-5f, 1e-5f));
}

TEST(TensorOps, MatmulShapeErrors) {
  Tensor a({2, 3}), b({4, 2});
  EXPECT_THROW(matmul(a, b), InvalidArgument);
  EXPECT_THROW(matmul(a.reshaped({6}), b), InvalidArgument);
}

class MatmulSizes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulSizes, DistributesOverAddition) {
  // Property: A (B + C) == A B + A C for all sizes.
  const auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  const Tensor c = random_tensor({k, n}, rng);
  const Tensor lhs = matmul(a, add(b, c));
  const Tensor rhs = add(matmul(a, b), matmul(a, c));
  EXPECT_TRUE(allclose(lhs, rhs, 1e-4f, 1e-4f))
      << "max diff " << max_abs_diff(lhs, rhs);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MatmulSizes,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{2, 3, 4},
                                           std::tuple{16, 16, 16},
                                           std::tuple{33, 17, 9},
                                           std::tuple{64, 128, 32},
                                           std::tuple{1, 257, 3}));

TEST(TensorOps, BatchedMatmulBroadcastAndFull) {
  Rng rng(5);
  const Tensor a = random_tensor({3, 4, 6}, rng);
  const Tensor w = random_tensor({6, 2}, rng);
  const Tensor y = batched_matmul(a, w);
  ASSERT_EQ(y.shape(), (Shape{3, 4, 2}));
  // Each batch must equal the 2-D product.
  for (std::int64_t b = 0; b < 3; ++b) {
    const Tensor ab = slice0(a, b, b + 1).reshaped({4, 6});
    const Tensor yb = slice0(y, b, b + 1).reshaped({4, 2});
    EXPECT_TRUE(allclose(yb, matmul(ab, w), 1e-5f, 1e-5f));
  }
  // Full rank-3 x rank-3.
  const Tensor b3 = random_tensor({3, 6, 2}, rng);
  const Tensor y3 = batched_matmul(a, b3);
  for (std::int64_t b = 0; b < 3; ++b) {
    const Tensor ab = slice0(a, b, b + 1).reshaped({4, 6});
    const Tensor bb = slice0(b3, b, b + 1).reshaped({6, 2});
    const Tensor yb = slice0(y3, b, b + 1).reshaped({4, 2});
    EXPECT_TRUE(allclose(yb, matmul(ab, bb), 1e-5f, 1e-5f));
  }
  // The full case runs chunks of the flat (batch, row) range; with 45 rows
  // the chunks cross batch boundaries, and each batch's rows must still be
  // the blocked kernel's, bit for bit.
  const std::int64_t batch = 5, m = 9, k = 21, n = 13;
  const Tensor lhs = random_tensor({batch, m, k}, rng);
  const Tensor rhs = random_tensor({batch, k, n}, rng);
  Tensor direct({batch, m, n});
  for (std::int64_t i = 0; i < batch; ++i)
    kernels::gemm_rows(lhs.raw() + i * m * k, rhs.raw() + i * k * n,
                       direct.raw() + i * m * n, m, k, n, 0, m);
  EXPECT_EQ(max_abs_diff(batched_matmul(lhs, rhs), direct), 0.0f);
}

TEST(TensorOps, ZeroSizeProducts) {
  // An empty inner dimension sums nothing, so every output is 0; an empty
  // outer one leaves an empty product.
  const auto all_zero = [](const Tensor& t) {
    for (const float v : t.data())
      if (v != 0.0f) return false;
    return true;
  };
  const std::vector<std::tuple<Shape, Shape, Shape>> cases = {
      {{2, 0}, {0, 2}, {2, 2}},
      {{0, 3}, {3, 2}, {0, 2}},
      {{2, 3}, {3, 0}, {2, 0}},
      {{0, 2, 3}, {3, 2}, {0, 2, 2}},
      {{2, 2, 0}, {2, 0, 2}, {2, 2, 2}}};
  for (const auto& [sa, sb, want] : cases) {
    const Tensor a = Tensor::ones(sa), b = Tensor::ones(sb);
    const Tensor c = sa.size() == 2 ? matmul(a, b) : batched_matmul(a, b);
    EXPECT_EQ(c.shape(), want) << to_string(sa) << " x " << to_string(sb);
    EXPECT_TRUE(all_zero(c)) << to_string(sa) << " x " << to_string(sb);
  }
}

TEST(TensorOps, BatchedMatmulShapeErrors) {
  Tensor a({2, 3, 4}), bad({3, 4, 2});
  EXPECT_THROW(batched_matmul(a, bad), InvalidArgument);
  EXPECT_THROW(batched_matmul(a.reshaped({6, 4}), bad), InvalidArgument);
}

TEST(TensorOps, TransposeInvolution) {
  Rng rng(6);
  const Tensor a = random_tensor({5, 9}, rng);
  EXPECT_TRUE(allclose(transpose(transpose(a)), a));
  EXPECT_FLOAT_EQ(transpose(a).at(3, 4), a.at(4, 3));
}

TEST(TensorOps, TransposeLast2) {
  Rng rng(7);
  const Tensor a = random_tensor({2, 3, 4}, rng);
  const Tensor t = transpose_last2(a);
  ASSERT_EQ(t.shape(), (Shape{2, 4, 3}));
  EXPECT_FLOAT_EQ(t.at(1, 2, 1), a.at(1, 1, 2));
  EXPECT_TRUE(allclose(transpose_last2(t), a));
}

TEST(TensorOps, SliceAndConcatRoundTrip) {
  Rng rng(8);
  const Tensor a = random_tensor({6, 3}, rng);
  const Tensor top = slice0(a, 0, 2);
  const Tensor bottom = slice0(a, 2, 6);
  EXPECT_TRUE(allclose(concat0(top, bottom), a));
  EXPECT_THROW(slice0(a, 4, 2), InvalidArgument);
  EXPECT_THROW(slice0(a, 0, 7), InvalidArgument);
  EXPECT_THROW(concat0(a, Tensor({2, 4})), InvalidArgument);
}

TEST(TensorOps, NormsAndAllclose) {
  Tensor a({3}, std::vector<float>{3, 0, 4});
  EXPECT_FLOAT_EQ(l2_norm(a), 5.0f);
  Tensor b = a;
  b.at(1) = 1e-7f;
  EXPECT_TRUE(allclose(a, b, 1e-5f, 1e-6f));
  b.at(1) = 0.5f;
  EXPECT_FALSE(allclose(a, b));
  EXPECT_FALSE(allclose(a, Tensor({4})));
}

}  // namespace
}  // namespace tvbf
