#include "tensor/im2col.hpp"

#include "tensor/ops.hpp"

#include "conv_reference.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace gbo {
namespace {

using conv_ref::col2im;
using conv_ref::im2col;

TEST(Im2col, GeometryOutputSizes) {
  ConvGeom g{.in_c = 3, .in_h = 8, .in_w = 8, .k = 3, .stride = 1, .pad = 1};
  EXPECT_EQ(g.out_h(), 8u);
  EXPECT_EQ(g.out_w(), 8u);
  EXPECT_EQ(g.patch_len(), 27u);

  ConvGeom g2{.in_c = 1, .in_h = 8, .in_w = 8, .k = 3, .stride = 2, .pad = 0};
  EXPECT_EQ(g2.out_h(), 3u);
  EXPECT_EQ(g2.out_w(), 3u);
}

TEST(Im2col, IdentityKernelCenterExtractsPixel) {
  // 1x1 image channel, 3x3 kernel, pad 1: the single patch's center element
  // is the pixel itself and all others are padding zeros.
  Tensor x({1, 1, 1, 1}, std::vector<float>{7.0f});
  ConvGeom g{.in_c = 1, .in_h = 1, .in_w = 1, .k = 3, .stride = 1, .pad = 1};
  Tensor cols = im2col(x, g);
  ASSERT_EQ(cols.dim(0), 1u);
  ASSERT_EQ(cols.dim(1), 9u);
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_FLOAT_EQ(cols[i], i == 4 ? 7.0f : 0.0f);
}

TEST(Im2col, KnownPatchNoPadding) {
  // 3x3 image, 2x2 kernel, no pad: patch (0,0) = [0 1; 3 4].
  Tensor x({1, 1, 3, 3}, std::vector<float>{0, 1, 2, 3, 4, 5, 6, 7, 8});
  ConvGeom g{.in_c = 1, .in_h = 3, .in_w = 3, .k = 2, .stride = 1, .pad = 0};
  Tensor cols = im2col(x, g);
  ASSERT_EQ(cols.dim(0), 4u);  // 2x2 output positions
  ASSERT_EQ(cols.dim(1), 4u);
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 3), 4.0f);
  // Patch at (1,1) = [4 5; 7 8].
  EXPECT_FLOAT_EQ(cols.at(3, 0), 4.0f);
  EXPECT_FLOAT_EQ(cols.at(3, 3), 8.0f);
}

TEST(Im2col, CodeLoweringIsTapMajorIm2col) {
  // The binary conv route's byte lowering holds exactly im2col's patch
  // values, with lane (ky·k + kx)·in_c + c taking channel-major column
  // c·k·k + ky·k + kx, and the pad code where im2col writes zero padding.
  const ConvGeom geoms[] = {
      {.in_c = 3, .in_h = 5, .in_w = 4, .k = 3, .stride = 1, .pad = 1},
      {.in_c = 2, .in_h = 7, .in_w = 6, .k = 3, .stride = 2, .pad = 0},
      {.in_c = 4, .in_h = 6, .in_w = 5, .k = 2, .stride = 2, .pad = 1},
  };
  const std::uint8_t kPad = 200;
  for (const ConvGeom& g : geoms) {
    const std::size_t batch = 2;
    Tensor x({batch, g.in_c, g.in_h, g.in_w});
    std::vector<std::uint8_t> codes(x.numel());
    for (std::size_t i = 0; i < x.numel(); ++i) {
      codes[i] = static_cast<std::uint8_t>(1 + i % 97);  // never kPad
      x[i] = static_cast<float>(codes[i]);
    }
    const Tensor cols = im2col(x, g);
    const std::size_t m = cols.dim(0), plen = g.patch_len(), taps = g.k * g.k;
    std::vector<std::uint8_t> scratch(padded_hwc_bytes(batch, g));
    std::vector<std::uint8_t> rows(m * plen);
    im2col_codes_into(codes.data(), batch, g, kPad, scratch.data(),
                      rows.data());
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t c = 0; c < g.in_c; ++c)
        for (std::size_t t = 0; t < taps; ++t) {
          const float want = cols.at(r, c * taps + t);
          const std::uint8_t got = rows[r * plen + t * g.in_c + c];
          EXPECT_EQ(got, want == 0.0f ? kPad : static_cast<std::uint8_t>(want))
              << "row " << r << " channel " << c << " tap " << t;
        }
  }
}

TEST(Im2col, RejectsBadInput) {
  ConvGeom g{.in_c = 2, .in_h = 4, .in_w = 4, .k = 3, .stride = 1, .pad = 1};
  Tensor wrong_rank({2, 4, 4});
  EXPECT_THROW(im2col(wrong_rank, g), std::invalid_argument);
  Tensor wrong_chan({1, 3, 4, 4});
  EXPECT_THROW(im2col(wrong_chan, g), std::invalid_argument);
}

/// Adjoint property: <im2col(x), y> == <x, col2im(y)> for all x, y. This is
/// the defining property of the conv backward-data pass.
TEST(Im2col, Col2imIsAdjoint) {
  Rng rng(31);
  ConvGeom g{.in_c = 2, .in_h = 5, .in_w = 6, .k = 3, .stride = 2, .pad = 1};
  const std::size_t batch = 2;
  Tensor x({batch, g.in_c, g.in_h, g.in_w});
  ops::fill_normal(x, rng, 0.0f, 1.0f);
  Tensor cols = im2col(x, g);
  Tensor y(cols.shape());
  ops::fill_normal(y, rng, 0.0f, 1.0f);

  const Tensor xt = col2im(y, batch, g);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i)
    lhs += static_cast<double>(cols[i]) * y[i];
  for (std::size_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x[i]) * xt[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, Col2imShapeValidation) {
  ConvGeom g{.in_c = 1, .in_h = 4, .in_w = 4, .k = 3, .stride = 1, .pad = 1};
  Tensor bad({5, 9});
  EXPECT_THROW(col2im(bad, 1, g), std::invalid_argument);
}

TEST(Im2col, StridedCoverageCountsEachPixelOnce) {
  // With k == stride and no padding, col2im of all-ones restores exactly 1
  // in every input position (each pixel belongs to exactly one patch).
  ConvGeom g{.in_c = 1, .in_h = 4, .in_w = 4, .k = 2, .stride = 2, .pad = 0};
  Tensor ones({g.out_h() * g.out_w(), g.patch_len()}, 1.0f);
  Tensor back = col2im(ones, 1, g);
  for (std::size_t i = 0; i < back.numel(); ++i) EXPECT_FLOAT_EQ(back[i], 1.0f);
}

}  // namespace
}  // namespace gbo
