// Tests of the offset (single-array + reference column) weight mapping vs
// the default differential-pair mapping (crossbar/crossbar_array).
#include "crossbar/crossbar_array.hpp"

#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

namespace gbo::xbar {
namespace {

Tensor signed_weight(std::size_t out, std::size_t in) {
  Tensor w({out, in});
  Rng rng(5);
  for (std::size_t i = 0; i < w.numel(); ++i)
    w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  return w;
}

// FNV-1a 64 over the float bit patterns of `t`, in storage order.
std::uint64_t bits_hash(const Tensor& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    std::uint32_t u = 0;
    const float v = t[i];
    std::memcpy(&u, &v, sizeof(u));
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// Absolute anchor for the array's programming and read-out under both
// mappings: committed hashes of the programmed effective weight and of one
// mvm_pulse output, at a fixed seed with every device non-ideality the
// pulse engine serves switched on (programming variation, stuck-on/off
// faults, read noise, ADC) and a ragged last tile. Every other crossbar
// gate is relative (fused vs reference, 1 vs 4 threads); this one fails
// when all paths move together. A deliberate change to programming or
// read-out re-baselines these constants.
TEST(CrossbarAnchor, CommittedHashesForBothMappings) {
  struct Case {
    WeightMapping mapping;
    std::uint64_t weight_hash, mvm_hash;
  };
  const Case cases[] = {
      {WeightMapping::kDifferential, 0x25aa1c883c4b057dull,
       0x7e57875d3e0bd014ull},
      {WeightMapping::kOffset, 0x6fec9d23ff9cf219ull, 0x26ed2c687f298886ull},
  };
  const Tensor w = signed_weight(12, 40);
  Tensor x({3, 40});
  Rng xr(21);
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = xr.bernoulli(0.5) ? 1.0f : -1.0f;
  for (const Case& c : cases) {
    DeviceConfig cfg;
    cfg.mapping = c.mapping;
    cfg.program_variation = 0.05;
    cfg.stuck_on_rate = 0.02;
    cfg.stuck_off_rate = 0.03;
    cfg.read_noise_sigma = 0.05;
    cfg.adc_bits = 8;
    CrossbarArray arr(w, cfg, /*tile_cols=*/16, Rng(2024));
    Rng rng(77);
    const Tensor y = arr.mvm_pulse(x, rng);
    const int m = static_cast<int>(c.mapping);
    EXPECT_EQ(bits_hash(arr.effective_weight()), c.weight_hash)
        << "mapping=" << m << " weight_hash=0x" << std::hex
        << bits_hash(arr.effective_weight());
    EXPECT_EQ(bits_hash(y), c.mvm_hash)
        << "mapping=" << m << " mvm_hash=0x" << std::hex << bits_hash(y);
  }
}

TEST(OffsetMapping, IdealDevicesRealizeExactWeight) {
  const Tensor w = signed_weight(4, 8);
  DeviceConfig cfg;
  cfg.mapping = WeightMapping::kOffset;
  CrossbarArray arr(w, cfg, 0, Rng(1));
  for (std::size_t i = 0; i < w.numel(); ++i)
    EXPECT_NEAR(arr.effective_weight()[i], w[i], 1e-6f);
  EXPECT_EQ(arr.mapping(), WeightMapping::kOffset);
}

TEST(OffsetMapping, NoiselessMvmMatchesDifferential) {
  const Tensor w = signed_weight(3, 6);
  Tensor x({2, 6});
  Rng xr(2);
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = xr.bernoulli(0.5) ? 1.0f : -1.0f;

  DeviceConfig diff_cfg;
  DeviceConfig off_cfg;
  off_cfg.mapping = WeightMapping::kOffset;
  CrossbarArray diff(w, diff_cfg, 0, Rng(3));
  CrossbarArray off(w, off_cfg, 0, Rng(3));
  Rng r1(4), r2(4);
  Tensor od = diff.mvm_pulse(x, r1);
  Tensor oo = off.mvm_pulse(x, r2);
  for (std::size_t i = 0; i < od.numel(); ++i)
    EXPECT_NEAR(oo[i], od[i], 1e-4f);
}

TEST(OffsetMapping, NonDefaultConductanceWindowStillExact) {
  const Tensor w = signed_weight(2, 4);
  DeviceConfig cfg;
  cfg.mapping = WeightMapping::kOffset;
  cfg.g_on = 2.5;
  cfg.g_off = 0.5;
  CrossbarArray arr(w, cfg, 0, Rng(6));
  // (g − g_mid)·2/(g_on − g_off) = ±1 for ideal cells.
  for (std::size_t i = 0; i < w.numel(); ++i)
    EXPECT_NEAR(arr.effective_weight()[i], w[i], 1e-6f);
}

TEST(OffsetMapping, InvalidConfigsThrow) {
  const Tensor w = signed_weight(2, 4);
  DeviceConfig degenerate;
  degenerate.mapping = WeightMapping::kOffset;
  degenerate.g_on = 1.0;
  degenerate.g_off = 1.0;
  EXPECT_THROW(CrossbarArray(w, degenerate, 0, Rng(1)),
               std::invalid_argument);
}

TEST(OffsetMapping, ReadNoiseAmplifiedVsDifferential) {
  // The offset decode multiplies by 2/(g_on − g_off) and subtracts two
  // independent reads, so its read-noise variance must exceed the
  // differential mapping's single full-swing read.
  const Tensor w = signed_weight(1, 8);
  DeviceConfig diff_cfg;
  diff_cfg.read_noise_sigma = 0.1;
  DeviceConfig off_cfg = diff_cfg;
  off_cfg.mapping = WeightMapping::kOffset;
  CrossbarArray diff(w, diff_cfg, 0, Rng(7));
  CrossbarArray off(w, off_cfg, 0, Rng(7));

  Tensor x({1, 8}, 1.0f);
  Rng r1(8), r2(9);
  const std::size_t reads = 4000;
  double var_d = 0.0, var_o = 0.0, mean_d = 0.0, mean_o = 0.0;
  std::vector<double> vd(reads), vo(reads);
  for (std::size_t i = 0; i < reads; ++i) {
    vd[i] = diff.mvm_pulse(x, r1)[0];
    vo[i] = off.mvm_pulse(x, r2)[0];
    mean_d += vd[i];
    mean_o += vo[i];
  }
  mean_d /= reads;
  mean_o /= reads;
  for (std::size_t i = 0; i < reads; ++i) {
    var_d += (vd[i] - mean_d) * (vd[i] - mean_d);
    var_o += (vo[i] - mean_o) * (vo[i] - mean_o);
  }
  var_d /= reads;
  var_o /= reads;
  // Analytic: differential = σ²; offset = (2σ)²·2 = 8σ². Allow slack.
  EXPECT_NEAR(var_d, 0.01, 0.002);
  EXPECT_GT(var_o, 4.0 * var_d);
  // Means agree (both decode the same weight).
  EXPECT_NEAR(mean_d, mean_o, 0.05);
}

TEST(OffsetMapping, ReferenceNoiseCorrelatedAcrossOutputs) {
  // The shared reference read makes the error of two outputs in the same
  // tile positively correlated — the signature property of offset mapping.
  Tensor w({2, 8});
  for (std::size_t i = 0; i < w.numel(); ++i) w[i] = 1.0f;
  DeviceConfig cfg;
  cfg.mapping = WeightMapping::kOffset;
  cfg.read_noise_sigma = 0.1;
  CrossbarArray arr(w, cfg, 0, Rng(10));
  Tensor x({1, 8}, 1.0f);
  Rng rng(11);
  const std::size_t reads = 4000;
  double m0 = 0.0, m1 = 0.0;
  std::vector<double> a(reads), b(reads);
  for (std::size_t i = 0; i < reads; ++i) {
    Tensor o = arr.mvm_pulse(x, rng);
    a[i] = o[0];
    b[i] = o[1];
    m0 += a[i];
    m1 += b[i];
  }
  m0 /= reads;
  m1 /= reads;
  double cov = 0.0, v0 = 0.0, v1 = 0.0;
  for (std::size_t i = 0; i < reads; ++i) {
    cov += (a[i] - m0) * (b[i] - m1);
    v0 += (a[i] - m0) * (a[i] - m0);
    v1 += (b[i] - m1) * (b[i] - m1);
  }
  const double corr = cov / std::sqrt(v0 * v1);
  // Of the 8σ² per-output variance, 4σ² is the shared reference term:
  // expected correlation ≈ 0.5.
  EXPECT_GT(corr, 0.3);
  EXPECT_LT(corr, 0.7);
}

TEST(OffsetMapping, HalfTheCellsSeeVariation) {
  // Programming variation applies to one array + one reference column,
  // not two full arrays; the realized weights still center on ±1.
  const Tensor w = signed_weight(8, 16);
  DeviceConfig cfg;
  cfg.mapping = WeightMapping::kOffset;
  cfg.program_variation = 0.05;
  CrossbarArray arr(w, cfg, 0, Rng(12));
  double mean_abs = 0.0;
  for (std::size_t i = 0; i < w.numel(); ++i)
    mean_abs += std::fabs(arr.effective_weight()[i]);
  mean_abs /= static_cast<double>(w.numel());
  EXPECT_NEAR(mean_abs, 1.0, 0.1);
}

TEST(OffsetMapping, TiledArraysDecodePerTile) {
  // Multi-tile offset arrays subtract one reference per tile; the full MVM
  // must still reconstruct W·x in the noiseless case.
  const Tensor w = signed_weight(3, 10);
  DeviceConfig cfg;
  cfg.mapping = WeightMapping::kOffset;
  CrossbarArray arr(w, cfg, /*tile_cols=*/4, Rng(13));
  EXPECT_EQ(arr.num_tiles(), 3u);
  Tensor x({1, 10});
  Rng xr(14);
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = xr.bernoulli(0.5) ? 1.0f : -1.0f;
  Rng rng(15);
  Tensor o = arr.mvm_pulse(x, rng);
  for (std::size_t c = 0; c < 3; ++c) {
    double want = 0.0;
    for (std::size_t j = 0; j < 10; ++j)
      want += static_cast<double>(w.at(c, j)) * x[j];
    EXPECT_NEAR(o[c], want, 1e-4);
  }
}

// Property sweep: under pure read noise the offset/differential variance
// ratio stays in the analytic band across array widths (the reference
// subtraction and the 2× decode are width-independent effects).
class MappingNoiseRatio : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MappingNoiseRatio, OffsetRoughlyEightTimesDifferential) {
  const std::size_t width = GetParam();
  Tensor w({1, width});
  for (std::size_t i = 0; i < width; ++i) w[i] = (i % 2) ? 1.0f : -1.0f;
  DeviceConfig diff_cfg;
  diff_cfg.read_noise_sigma = 0.2;
  DeviceConfig off_cfg = diff_cfg;
  off_cfg.mapping = WeightMapping::kOffset;
  CrossbarArray diff(w, diff_cfg, 0, Rng(16));
  CrossbarArray off(w, off_cfg, 0, Rng(16));
  Tensor x({1, width}, 1.0f);
  Rng r1(17), r2(18);
  const std::size_t reads = 3000;
  double vd = 0.0, vo = 0.0, md = 0.0, mo = 0.0;
  std::vector<double> sd(reads), so(reads);
  for (std::size_t i = 0; i < reads; ++i) {
    sd[i] = diff.mvm_pulse(x, r1)[0];
    so[i] = off.mvm_pulse(x, r2)[0];
    md += sd[i];
    mo += so[i];
  }
  md /= reads;
  mo /= reads;
  for (std::size_t i = 0; i < reads; ++i) {
    vd += (sd[i] - md) * (sd[i] - md);
    vo += (so[i] - mo) * (so[i] - mo);
  }
  const double ratio = vo / vd;
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 12.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MappingNoiseRatio,
                         ::testing::Values(4, 8, 16, 32, 64));

}  // namespace
}  // namespace gbo::xbar
