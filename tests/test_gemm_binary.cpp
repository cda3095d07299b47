// Bitwise contract of the int8 level-code binary MVM (DESIGN.md §8): over
// ±1 weights and on-grid 9-level activations, gemm_binary must equal the
// float A·Bᵀ kernels bit for bit — every shape, every thread count, every
// registry entry, row-major and NCHW output alike.
#include "tensor/gemm_binary.hpp"

#include "common/thread_pool.hpp"
#include "quant/binary_weight.hpp"
#include "quant/quant_layers.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace gbo::gemm {
namespace {

/// Deterministic ±1 sign matrix (what quant::binarize produces).
std::vector<float> make_signs(std::size_t n, std::size_t k) {
  std::vector<float> b(n * k);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = ((i * 2654435761u) >> 7) & 1 ? 1.0f : -1.0f;
  return b;
}

/// Deterministic on-grid activations: levels 0..8 map to (2l - 8) / 8.
std::vector<float> make_grid(std::size_t m, std::size_t k) {
  std::vector<float> a(m * k);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int level = static_cast<int>((i * 40503u) >> 3) % 9;
    a[i] = static_cast<float>(level) * 0.25f - 1.0f;
  }
  return a;
}

/// True when a and b hold the same floats bit for bit (-0.0f != +0.0f).
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Level codes of `a` [m, k], row i at i·lda; the lda - k bytes after
/// each row (and after the last) are guard bytes that hold `guard`.
std::vector<std::uint8_t> make_codes(const std::vector<float>& a,
                                     std::size_t m, std::size_t k,
                                     std::size_t lda, std::uint8_t guard) {
  std::vector<std::uint8_t> codes(m * lda + (lda - k), guard);
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_TRUE(binary_grid_codes(&a[i * k], k, &codes[i * lda]));
  return codes;
}

/// Runs the dispatched route for one shape and checks it bitwise against
/// three independent float oracles (naive, row-stable, packed-panel).
void check_shape(std::size_t m, std::size_t n, std::size_t k) {
  SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k);
  const std::vector<float> A = make_grid(m, k);
  const std::vector<float> B = make_signs(n, k);

  PackedBinaryB pb = prepack_binary_b_t(n, k, B.data(), k);
  ASSERT_FALSE(pb.empty());
  std::vector<std::uint8_t> codes(m * k);
  ASSERT_TRUE(binary_grid_codes(A.data(), m * k, codes.data()));
  std::vector<float> c_bin(m * n, -1.0f);
  gemm_binary(m, codes.data(), k, pb, BinaryOut::rows(c_bin.data(), n));

  std::vector<float> c_naive(m * n);
  naive_gemm_nt(m, n, k, A.data(), B.data(), c_naive.data());
  std::vector<float> c_row(m * n);
  gemm_nt_rowwise(m, n, k, A.data(), k, B.data(), k, c_row.data(), n);
  PackedB fb = prepack_b_t(n, k, B.data(), k);
  std::vector<float> c_panel(m * n);
  gemm_prepacked(m, n, k, A.data(), k, fb.panels.data(), c_panel.data(), n);

  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_EQ(c_bin[i], c_naive[i]) << "i=" << i;
    EXPECT_EQ(c_bin[i], c_row[i]) << "i=" << i;
    EXPECT_EQ(c_bin[i], c_panel[i]) << "i=" << i;
  }
}

TEST(GemmBinary, BitwiseEqualToFloatOraclesAcrossShapes) {
  check_shape(1, 1, 1);      // minimal
  check_shape(1, 16, 64);    // one panel exactly, unit batch
  check_shape(3, 5, 65);     // one lane past a quad boundary
  check_shape(2, 3, 1);      // k = 1: three dead lanes in the only quad
  check_shape(7, 33, 63);    // ragged everywhere
  check_shape(129, 33, 257); // tall + ragged, crosses every tile edge
  check_shape(5, 16, 576);   // conv-like fan-in (64·3·3)
}

TEST(GemmBinary, BitwiseAcrossThreadCounts) {
  const std::size_t m = 67, n = 29, k = 193;
  const std::vector<float> A = make_grid(m, k);
  const std::vector<float> B = make_signs(n, k);
  PackedBinaryB pb = prepack_binary_b_t(n, k, B.data(), k);
  std::vector<std::uint8_t> codes(m * k);
  ASSERT_TRUE(binary_grid_codes(A.data(), m * k, codes.data()));

  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  pool.set_num_threads(1);
  std::vector<float> c1(m * n);
  gemm_binary(m, codes.data(), k, pb, BinaryOut::rows(c1.data(), n));
  pool.set_num_threads(4);
  std::vector<float> c4(m * n);
  gemm_binary(m, codes.data(), k, pb, BinaryOut::rows(c4.data(), n));
  pool.set_num_threads(restore);

  for (std::size_t i = 0; i < m * n; ++i) EXPECT_EQ(c1[i], c4[i]);
}

struct Shape {
  std::size_t m, n, k;
};

TEST(GemmBinary, EveryRegistryKernelMatchesScalar) {
  // The dispatch can never change an output bit: every entry this CPU can
  // run — the CPUID probe's choice included — must agree with the scalar
  // reference and the float oracle exactly, in both output layouts, at 1
  // and 4 threads. (The CI fallback leg runs the whole suite under
  // GBO_FORCE_SCALAR_KERNELS=1, which makes binary_kernel() itself scalar.)
  // Each code row is followed by guard bytes that are not codes; reading
  // them as data would change the result.
  const Shape shapes[] = {
      {13, 21, 1},    {13, 21, 3},   {13, 21, 27},  {13, 21, 145},  // k % 4
      {9, 40, 1152},                                                 // deep k
      {11, 1, 64},    {11, 10, 64},  {11, 17, 64},                   // n edges
      {1, 32, 100},   {7, 32, 100},  {15, 48, 100},                  // m edges
      // The six VGG9 eval shapes (width 16, 16×16 images, batch 8):
      // conv2, conv3, conv4, conv5, conv6/conv7, fc1.
      {2048, 16, 144}, {512, 32, 144}, {512, 32, 288},
      {128, 64, 288},  {128, 64, 576}, {8, 128, 256}};
  ASSERT_FALSE(binary_kernels().empty());
  EXPECT_EQ(binary_kernels().front(), &binary_kernel_scalar());
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  for (const Shape& s : shapes) {
    const std::size_t m = s.m, n = s.n, k = s.k, lda = k + 7;
    SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k);
    const std::vector<float> A = make_grid(m, k);
    const std::vector<float> B = make_signs(n, k);
    const PackedBinaryB pb = prepack_binary_b_t(n, k, B.data(), k);
    const std::vector<std::uint8_t> codes = make_codes(A, m, k, lda, 0xff);
    std::vector<float> oracle(m * n);
    naive_gemm_nt(m, n, k, A.data(), B.data(), oracle.data());

    std::vector<float> c_scalar(m * n);
    gemm_binary_with(binary_kernel_scalar(), m, codes.data(), lda, pb,
                     BinaryOut::rows(c_scalar.data(), n));
    EXPECT_TRUE(same_bits(c_scalar, oracle));

    // NCHW view: rows are pixels of images of `pixels` rows each. 16
    // keeps every 8-row tile inside one image; 12 makes tiles straddle an
    // image boundary (a ragged last image is fine: row i only selects its
    // own slot).
    const std::size_t pixels = m <= 12 ? m : (m % 16 == 0 ? 16 : 12);
    const std::size_t images = (m + pixels - 1) / pixels;
    for (const BinaryKernel* kern : binary_kernels()) {
      SCOPED_TRACE(kern->name);
      for (const std::size_t threads : {1, 4}) {
        pool.set_num_threads(threads);
        std::vector<float> c(m * n, -7.0f);
        gemm_binary_with(*kern, m, codes.data(), lda, pb,
                         BinaryOut::rows(c.data(), n));
        EXPECT_TRUE(same_bits(c, c_scalar)) << threads << " threads";

        std::vector<float> y(images * n * pixels, -7.0f);
        gemm_binary_with(*kern, m, codes.data(), lda, pb,
                         BinaryOut::nchw(y.data(), n, pixels));
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < n; ++j)
            ASSERT_EQ(y[(i / pixels) * n * pixels + j * pixels + i % pixels],
                      c_scalar[i * n + j])
                << threads << " threads, nchw i=" << i << " j=" << j;
      }
    }
    pool.set_num_threads(restore);
  }

  EXPECT_STREQ(binary_kernel_scalar().name, "scalar");
  EXPECT_NE(binary_kernel_name(), nullptr);
  EXPECT_FALSE(cpu_features().empty());
}

TEST(GemmBinary, GuardBytesAreNeverReadAsData) {
  // The same codes with different guard bytes after every row give the
  // same result in every entry: the k-tail is not part of the dot.
  const std::size_t m = 10, n = 20;
  for (const std::size_t k : {1, 2, 3, 5, 27, 145}) {
    const std::size_t lda = k + 3;
    const std::vector<float> A = make_grid(m, k);
    const std::vector<float> B = make_signs(n, k);
    const PackedBinaryB pb = prepack_binary_b_t(n, k, B.data(), k);
    const std::vector<std::uint8_t> zeros = make_codes(A, m, k, lda, 0x00);
    const std::vector<std::uint8_t> ones = make_codes(A, m, k, lda, 0xff);
    for (const BinaryKernel* kern : binary_kernels()) {
      SCOPED_TRACE(::testing::Message() << kern->name << " k=" << k);
      std::vector<float> c0(m * n), c1(m * n);
      gemm_binary_with(*kern, m, zeros.data(), lda, pb,
                       BinaryOut::rows(c0.data(), n));
      gemm_binary_with(*kern, m, ones.data(), lda, pb,
                       BinaryOut::rows(c1.data(), n));
      EXPECT_TRUE(same_bits(c0, c1));
    }
  }
}

TEST(GemmBinary, EveryRegistryEncoderMatchesScalar) {
  // Every registry encoder evaluates the exact grid predicate per lane: the
  // same codes byte for byte, the same accept/reject, no writes past n and
  // no reads past the row (off-grid poison follows it), for every k in
  // 1..1030. An off-grid sentinel is planted at every lane of the listed
  // lengths, and at the first, middle and last lane of all the others.
  const float kPoison = 0.3f;
  const BinaryKernel& ref = binary_kernel_scalar();
  const float off_grid[] = {0.3f,
                            1e-8f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            1.25f,
                            -1.0000001f};
  const std::size_t every_lane[] = {1, 15, 16, 17, 63, 64, 65, 127, 576, 1030};
  for (std::size_t k = 1; k <= 1030; ++k) {
    std::vector<std::size_t> lanes = {0, k / 2, k - 1};
    if (std::find(std::begin(every_lane), std::end(every_lane), k) !=
        std::end(every_lane)) {
      lanes.resize(k);
      for (std::size_t p = 0; p < k; ++p) lanes[p] = p;
    }
    const std::vector<float> grid = make_grid(1, k);
    std::vector<float> row(k + 8, kPoison);
    std::copy(grid.begin(), grid.end(), row.begin());
    row[k - 1] = -0.0f;  // last lane: accepted as level 4
    std::vector<std::uint8_t> want(k);
    ASSERT_TRUE(ref.grid_codes(row.data(), k, want.data()));
    EXPECT_EQ(want[k - 1], 4u) << "k=" << k;

    for (const BinaryKernel* kern : binary_kernels()) {
      SCOPED_TRACE(::testing::Message() << kern->name << " k=" << k);
      std::vector<std::uint8_t> codes(k + 8, 0xaa);
      ASSERT_TRUE(kern->grid_codes(row.data(), k, codes.data()));
      EXPECT_TRUE(std::equal(want.begin(), want.end(), codes.begin()));
      for (std::size_t p = k; p < k + 8; ++p)
        EXPECT_EQ(codes[p], 0xaa) << "wrote past n at " << p;

      // An off-grid sentinel, the last tail lane included, is rejected
      // exactly like the scalar reference rejects it.
      for (const float bad : off_grid) {
        for (const std::size_t p : lanes) {
          const float keep = row[p];
          row[p] = bad;
          ASSERT_FALSE(ref.grid_codes(row.data(), k, codes.data()));
          EXPECT_FALSE(kern->grid_codes(row.data(), k, codes.data()))
              << "value " << bad << " at lane " << p;
          row[p] = keep;
        }
      }
    }
  }
}

TEST(GemmBinary, OffGridInputAbortsPack) {
  std::vector<float> a = {0.25f, -0.5f, 0.3f, 1.0f};  // 0.3 is off-grid
  std::vector<std::uint8_t> codes(4);
  EXPECT_FALSE(binary_grid_codes(a.data(), 4, codes.data()));
  a[2] = 0.75f;
  EXPECT_TRUE(binary_grid_codes(a.data(), 4, codes.data()));
  EXPECT_EQ(codes, (std::vector<std::uint8_t>{5, 2, 7, 8}));
}

TEST(GemmBinary, GridCheckAcceptsExactlyTheNineLevels) {
  for (int l = 0; l <= 8; ++l) {
    const float v = static_cast<float>(l) * 0.25f - 1.0f;
    std::uint8_t code = 0xff;
    EXPECT_TRUE(binary_grid_codes(&v, 1, &code)) << v;
    EXPECT_EQ(code, l);
  }
  const float bad[] = {1.25f, -1.25f, 0.1f, 1e-8f,
                       std::numeric_limits<float>::quiet_NaN()};
  for (float v : bad) {
    std::uint8_t code;
    EXPECT_FALSE(binary_grid_codes(&v, 1, &code)) << v;
  }
}

TEST(GemmBinary, ZeroDotProducesPositiveZero) {
  // The float path's accumulators start at +0.0 and never produce -0.0 for
  // on-grid operands; the epilogue float(2D - 8S)·0.125 must match, or the
  // "bitwise" contract silently breaks on exact cancellation.
  const std::vector<float> A = {1.0f, -1.0f};  // levels 8 and 0
  const std::vector<float> B = {1.0f, 1.0f};
  PackedBinaryB pb = prepack_binary_b_t(1, 2, B.data(), 2);
  std::vector<std::uint8_t> codes(2);
  ASSERT_TRUE(binary_grid_codes(A.data(), 2, codes.data()));
  for (const BinaryKernel* kern : binary_kernels()) {
    float c = -7.0f;
    gemm_binary_with(*kern, 1, codes.data(), 2, pb, BinaryOut::rows(&c, 1));
    EXPECT_EQ(c, 0.0f) << kern->name;
    EXPECT_FALSE(std::signbit(c)) << kern->name;
  }
}

TEST(GemmBinary, DegenerateShapesYieldEmptyHandle) {
  const float one = 1.0f;
  EXPECT_TRUE(prepack_binary_b_t(0, 4, &one, 4).empty());
  EXPECT_TRUE(prepack_binary_b_t(4, 0, &one, 0).empty());
}

TEST(GemmBinary, PrepackCountsOnePackPerCall) {
  const std::vector<float> B = make_signs(3, 40);
  const std::uint64_t before = binary_pack_count();
  PackedBinaryB pb = prepack_binary_b_t(3, 40, B.data(), 40);
  EXPECT_EQ(binary_pack_count(), before + 1);
  EXPECT_EQ(pb.n, 3u);
  EXPECT_EQ(pb.panels(), 1u);
  EXPECT_EQ(pb.quads.size(), 10u);  // one panel of 40 / 4 quads
  // S_j is the row sum of the signs; padding columns sum to 0.
  for (std::size_t j = 0; j < kBinaryPanelCols; ++j) {
    std::int32_t s = 0;
    for (std::size_t p = 0; j < 3 && p < 40; ++p)
      s += B[j * 40 + p] >= 0.0f ? 1 : -1;
    EXPECT_EQ(pb.sums[j], s) << "j=" << j;
  }
}

TEST(BinaryPanelCache, RepacksExactlyOncePerWeightVersion) {
  Tensor latent({4, 24});
  for (std::size_t i = 0; i < latent.numel(); ++i)
    latent[i] = (i % 3 == 0) ? -0.4f : 0.7f;

  quant::BinaryPanelCache cache;
  const float* bw;
  const float* panels;
  const PackedBinaryB* pb;
  float scale;
  const std::uint64_t packs0 = binary_pack_count();
  cache.get(latent, /*scaled=*/true, 4, 24, /*want_panels=*/false, &bw,
            &panels, &pb, &scale);
  EXPECT_EQ(cache.rebuilds(), 1u);
  cache.get(latent, true, 4, 24, false, &bw, &panels, &pb, &scale);
  cache.get(latent, true, 4, 24, false, &bw, &panels, &pb, &scale);
  EXPECT_EQ(cache.rebuilds(), 1u);  // steady state: zero re-packs
  EXPECT_EQ(binary_pack_count(), packs0 + 1);

  latent[0] = 0.9f;  // non-const access bumps the version
  cache.get(latent, true, 4, 24, false, &bw, &panels, &pb, &scale);
  EXPECT_EQ(cache.rebuilds(), 2u);
  EXPECT_EQ(binary_pack_count(), packs0 + 2);
  EXPECT_FLOAT_EQ(scale, quant::binarize_scale(latent));
}

TEST(BinaryPanelCache, CopiesStartCold) {
  // Regression for the copy ctor/assignment: a copied cache must NOT adopt
  // the source's version stamp or buffers (it may belong to a layer whose
  // weights diverge), so it re-binarizes and re-packs on first use.
  Tensor latent({2, 8});
  for (std::size_t i = 0; i < latent.numel(); ++i)
    latent[i] = (i & 1) ? 0.5f : -0.25f;
  quant::BinaryPanelCache cache;
  const float* bw;
  const float* panels;
  const PackedBinaryB* pb;
  float scale;
  cache.get(latent, true, 2, 8, false, &bw, &panels, &pb, &scale);
  ASSERT_EQ(cache.rebuilds(), 1u);

  quant::BinaryPanelCache copied(cache);
  EXPECT_EQ(copied.rebuilds(), 0u);  // cold: nothing adopted
  copied.get(latent, true, 2, 8, false, &bw, &panels, &pb, &scale);
  EXPECT_EQ(copied.rebuilds(), 1u);  // refilled fresh, and usable
  EXPECT_EQ(pb->n, 2u);

  quant::BinaryPanelCache assigned;
  assigned.get(latent, true, 2, 8, false, &bw, &panels, &pb, &scale);
  ASSERT_EQ(assigned.rebuilds(), 1u);
  assigned = cache;
  EXPECT_EQ(assigned.rebuilds(), 1u);  // assignment adopts nothing either
}

}  // namespace
}  // namespace gbo::gemm
