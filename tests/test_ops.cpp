#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gbo {
namespace {

TEST(Ops, AddSubMul) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{4, 5, 6});
  Tensor s = ops::add(a, b);
  EXPECT_EQ(s[0], 5.0f);
  EXPECT_EQ(s[2], 9.0f);
  Tensor d = ops::sub(b, a);
  EXPECT_EQ(d[1], 3.0f);
  Tensor m = ops::mul(a, b);
  EXPECT_EQ(m[2], 18.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a({3}), b({4});
  EXPECT_THROW(ops::add(a, b), std::invalid_argument);
  EXPECT_THROW(ops::add_inplace(a, b), std::invalid_argument);
  EXPECT_THROW(ops::axpy_inplace(a, 1.0f, b), std::invalid_argument);
}

TEST(Ops, ScaleAndAxpy) {
  Tensor a({2}, std::vector<float>{1, -2});
  Tensor b({2}, std::vector<float>{10, 20});
  ops::axpy_inplace(a, 0.5f, b);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
  EXPECT_FLOAT_EQ(a[1], 8.0f);
  Tensor c = ops::scale(b, -1.0f);
  EXPECT_FLOAT_EQ(c[0], -10.0f);
}

TEST(Ops, Reductions) {
  Tensor a({4}, std::vector<float>{1, -3, 2, 4});
  EXPECT_FLOAT_EQ(ops::sum(a), 4.0f);
  EXPECT_FLOAT_EQ(ops::mean(a), 1.0f);
  EXPECT_FLOAT_EQ(ops::max_abs(a), 4.0f);
  EXPECT_FLOAT_EQ(ops::min(a), -3.0f);
  EXPECT_FLOAT_EQ(ops::max(a), 4.0f);
  EXPECT_EQ(ops::argmax(a), 3u);
}

TEST(Ops, VarianceMatchesDefinition) {
  Tensor a({4}, std::vector<float>{1, 1, 3, 3});
  EXPECT_NEAR(ops::variance(a), 1.0f, 1e-6f);
}

TEST(Ops, SumIsStableForManySmallValues) {
  Tensor a({100000}, 0.1f);
  EXPECT_NEAR(ops::sum(a), 10000.0f, 0.01f);
}

TEST(Ops, ArgmaxRows) {
  Tensor a({2, 3}, std::vector<float>{1, 5, 2, 9, 0, 3});
  const auto idx = ops::argmax_rows(a);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 0u);
}

TEST(Ops, MatmulSmallKnown) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  Tensor a({2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor b({2, 2}, std::vector<float>{5, 6, 7, 8});
  Tensor c = ops::matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Ops, MatmulInnerDimMismatchThrows) {
  Tensor a({2, 3}), b({4, 2});
  EXPECT_THROW(ops::matmul(a, b), std::invalid_argument);
}

/// Reference O(mnk) triple loop used to validate all GEMM variants.
Tensor ref_matmul(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  for (std::size_t i = 0; i < a.dim(0); ++i)
    for (std::size_t j = 0; j < b.dim(1); ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.dim(1); ++k)
        acc += a.at(i, k) * b.at(k, j);
      c.at(i, j) = acc;
    }
  return c;
}

TEST(Ops, MatmulVariantsAgreeWithReference) {
  Rng rng(77);
  Tensor a({7, 5}), b({5, 9});
  ops::fill_normal(a, rng, 0.0f, 1.0f);
  ops::fill_normal(b, rng, 0.0f, 1.0f);
  const Tensor expected = ref_matmul(a, b);

  EXPECT_TRUE(ops::allclose(ops::matmul(a, b), expected, 1e-4f, 1e-5f));
  EXPECT_TRUE(ops::allclose(ops::matmul_bt(a, ops::transpose(b)), expected,
                            1e-4f, 1e-5f));
  EXPECT_TRUE(ops::allclose(ops::matmul_at(ops::transpose(a), b), expected,
                            1e-4f, 1e-5f));
}

TEST(Ops, MatmulAccAccumulates) {
  Tensor a({1, 2}, std::vector<float>{1, 1});
  Tensor b({2, 1}, std::vector<float>{2, 3});
  Tensor c({1, 1}, 10.0f);
  ops::matmul_acc(a, b, c);
  EXPECT_FLOAT_EQ(c[0], 15.0f);
}

TEST(Ops, TransposeRoundTrip) {
  Rng rng(5);
  Tensor a({3, 4});
  ops::fill_uniform(a, rng, -1.0f, 1.0f);
  Tensor tt = ops::transpose(ops::transpose(a));
  EXPECT_TRUE(ops::allclose(tt, a, 0.0f, 0.0f));
}

TEST(Ops, AllcloseToleranceSemantics) {
  Tensor a({1}, std::vector<float>{1.0f});
  Tensor b({1}, std::vector<float>{1.001f});
  EXPECT_TRUE(ops::allclose(a, b, 1e-2f, 0.0f));
  EXPECT_FALSE(ops::allclose(a, b, 1e-5f, 1e-6f));
}

TEST(Ops, FillNormalMoments) {
  Rng rng(9);
  Tensor a({50000});
  ops::fill_normal(a, rng, 2.0f, 3.0f);
  EXPECT_NEAR(ops::mean(a), 2.0f, 0.05f);
  EXPECT_NEAR(std::sqrt(ops::variance(a)), 3.0f, 0.05f);
}

TEST(Ops, AddNormalAddsTheSequentialNormals) {
  // Crosses the 512-float draw chunk, with a cached sine half carried in.
  Rng init(3), rng(4), ref(4);
  (void)rng.normal();
  (void)ref.normal();
  Tensor a({1031});
  ops::fill_uniform(a, init, -2.0f, 2.0f);
  Tensor want = a;
  for (std::size_t i = 0; i < want.numel(); ++i)
    want[i] += static_cast<float>(ref.normal(0.0, 0.75));
  ops::add_normal(a.data(), a.numel(), rng, 0.75);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], want[i]);
  EXPECT_EQ(rng.normal(), ref.normal());
}

TEST(Ops, FillUniformRange) {
  Rng rng(9);
  Tensor a({10000});
  ops::fill_uniform(a, rng, -2.0f, 2.0f);
  EXPECT_GE(ops::min(a), -2.0f);
  EXPECT_LE(ops::max(a), 2.0f);
  EXPECT_NEAR(ops::mean(a), 0.0f, 0.05f);
}

}  // namespace
}  // namespace gbo
