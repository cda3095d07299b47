#include "quant/act_quant.hpp"
#include "nn/activations.hpp"
#include "quant/binary_weight.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace gbo::quant {
namespace {

TEST(BinaryWeight, SignWithUnitScale) {
  Tensor w({4}, std::vector<float>{0.3f, -0.7f, 0.0f, -0.1f});
  Tensor b = binarize(w, /*scaled=*/false);
  EXPECT_FLOAT_EQ(b[0], 1.0f);
  EXPECT_FLOAT_EQ(b[1], -1.0f);
  EXPECT_FLOAT_EQ(b[2], 1.0f);  // sign(0) -> +1 by convention
  EXPECT_FLOAT_EQ(b[3], -1.0f);
}

TEST(BinaryWeight, MeanAbsScale) {
  Tensor w({4}, std::vector<float>{0.4f, -0.8f, 0.2f, -0.6f});
  float scale = 0.0f;
  Tensor b = binarize(w, /*scaled=*/true, &scale);
  EXPECT_NEAR(scale, 0.5f, 1e-6f);
  EXPECT_FLOAT_EQ(b[0], 0.5f);
  EXPECT_FLOAT_EQ(b[1], -0.5f);
}

TEST(BinaryWeight, ZeroTensorFallsBackToUnitScale) {
  Tensor w({3});
  float scale = 0.0f;
  Tensor b = binarize(w, true, &scale);
  EXPECT_FLOAT_EQ(scale, 1.0f);
  EXPECT_FLOAT_EQ(b[0], 1.0f);
}

TEST(BinaryWeight, SteClipZeroesSaturatedGrads) {
  Tensor w({4}, std::vector<float>{0.5f, 1.5f, -1.5f, -0.5f});
  Tensor g({4}, 1.0f);
  ste_clip_grad(w, g);
  EXPECT_FLOAT_EQ(g[0], 1.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);
  EXPECT_FLOAT_EQ(g[3], 1.0f);
}

TEST(BinaryWeight, ClampLatent) {
  Tensor w({3}, std::vector<float>{2.0f, -3.0f, 0.5f});
  clamp_latent(w);
  EXPECT_FLOAT_EQ(w[0], 1.0f);
  EXPECT_FLOAT_EQ(w[1], -1.0f);
  EXPECT_FLOAT_EQ(w[2], 0.5f);
}

TEST(ActQuant, NineLevelGrid) {
  // 9 levels over [-1,1]: step 0.25.
  EXPECT_FLOAT_EQ(quantize_value(0.0f, 9), 0.0f);
  EXPECT_FLOAT_EQ(quantize_value(0.1f, 9), 0.0f);
  EXPECT_FLOAT_EQ(quantize_value(0.13f, 9), 0.25f);
  EXPECT_FLOAT_EQ(quantize_value(-0.9f, 9), -1.0f);
  EXPECT_FLOAT_EQ(quantize_value(1.0f, 9), 1.0f);
}

TEST(ActQuant, ClampsOutOfRange) {
  EXPECT_FLOAT_EQ(quantize_value(5.0f, 9), 1.0f);
  EXPECT_FLOAT_EQ(quantize_value(-5.0f, 9), -1.0f);
}

TEST(ActQuant, TwoLevelIsSign) {
  EXPECT_FLOAT_EQ(quantize_value(0.3f, 2), 1.0f);
  EXPECT_FLOAT_EQ(quantize_value(-0.3f, 2), -1.0f);
}

TEST(ActQuant, RejectsDegenerateLevels) {
  EXPECT_THROW(quantize_value(0.0f, 1), std::invalid_argument);
  EXPECT_THROW(level_index(0.0f, 0), std::invalid_argument);
}

TEST(ActQuant, LevelIndexRejectsNaN) {
  EXPECT_THROW(level_index(std::numeric_limits<float>::quiet_NaN(), 9),
               std::domain_error);
  EXPECT_EQ(level_index(std::numeric_limits<float>::infinity(), 9), 8u);
}

TEST(ActQuant, LevelIndexInverse) {
  // level k of L levels decodes to 2k/(L-1) - 1; level_index must invert it.
  for (std::size_t levels : {3u, 5u, 9u, 17u}) {
    for (std::size_t k = 0; k < levels; ++k) {
      const float v =
          2.0f * static_cast<float>(k) / static_cast<float>(levels - 1) - 1.0f;
      EXPECT_EQ(level_index(v, levels), k);
    }
  }
}

TEST(ActQuant, QuantizationErrorBounded) {
  Rng rng(44);
  Tensor x({1000});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  for (std::size_t levels : {5u, 9u, 17u}) {
    Tensor q = quantize(x, levels);
    const float half_step = 1.0f / static_cast<float>(levels - 1);
    for (std::size_t i = 0; i < x.numel(); ++i)
      EXPECT_LE(std::fabs(q[i] - x[i]), half_step + 1e-6f);
  }
}

TEST(QuantTanh, OutputOnGridAndBounded) {
  QuantTanh act(9);
  Rng rng(45);
  Tensor x({500});
  ops::fill_normal(x, rng, 0.0f, 2.0f);
  Tensor y = act.forward(x);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_GE(y[i], -1.0f);
    EXPECT_LE(y[i], 1.0f);
    const float scaled = (y[i] + 1.0f) * 4.0f;  // should be integral
    EXPECT_NEAR(scaled, std::round(scaled), 1e-5f);
  }
}

TEST(QuantTanh, BackwardIsTanhDerivative) {
  // Bitwise g·(1 − tanhf(x)²) at -1, 0, 2 and within ±256 ulps of every
  // branch point of tanhf (nn::tanh_branch_points), on both signs.
  std::vector<float> xs = {-1.0f, 0.0f, 2.0f};
  for (float p : nn::tanh_branch_points())
    for (int d = -256; d <= 256; ++d) {
      const float v = std::bit_cast<float>(std::bit_cast<std::uint32_t>(p) +
                                           static_cast<std::uint32_t>(d));
      xs.push_back(v);
      xs.push_back(-v);
    }
  const std::size_t n = xs.size();
  const Tensor x({n}, xs);
  Tensor g({n});
  Rng rng(46);
  ops::fill_normal(g, rng, 0.0f, 1.0f);
  QuantTanh act(9);
  act.forward(x);
  const Tensor gx = act.backward(g);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float t = std::tanh(x[i]);
    const float want = g[i] * (1.0f - t * t);
    bad += std::bit_cast<std::uint32_t>(gx[i]) !=
           std::bit_cast<std::uint32_t>(want);
  }
  EXPECT_EQ(bad, 0u);
}

}  // namespace
}  // namespace gbo::quant
