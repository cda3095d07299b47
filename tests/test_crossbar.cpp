#include "crossbar/crossbar_array.hpp"
#include "crossbar/device_model.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gbo::xbar {
namespace {

Tensor random_binary_weight(std::size_t out, std::size_t in, float scale,
                            std::uint64_t seed) {
  Rng rng(seed);
  Tensor w({out, in});
  for (std::size_t i = 0; i < w.numel(); ++i)
    w[i] = rng.bernoulli(0.5) ? scale : -scale;
  return w;
}

TEST(DeviceModel, IdealFlag) {
  DeviceConfig cfg;
  EXPECT_TRUE(cfg.ideal());
  cfg.stuck_on_rate = 0.01;
  EXPECT_FALSE(cfg.ideal());
}

TEST(DeviceModel, ProgramCellIdealIsExact) {
  DeviceConfig cfg;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(program_cell(cfg, 1.0, rng), 1.0);
  EXPECT_DOUBLE_EQ(program_cell(cfg, 0.0, rng), 0.0);
}

TEST(DeviceModel, ProgramVariationIsMultiplicative) {
  DeviceConfig cfg;
  cfg.program_variation = 0.1;
  Rng rng(2);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += program_cell(cfg, 1.0, rng);
  // Lognormal mean = exp(σ²/2) ≈ 1.005.
  EXPECT_NEAR(acc / n, std::exp(0.005), 0.01);
  // Off cells stay off.
  EXPECT_DOUBLE_EQ(program_cell(cfg, 0.0, rng), 0.0);
}

TEST(DeviceModel, StuckFaultRates) {
  DeviceConfig cfg;
  cfg.stuck_on_rate = 0.2;
  cfg.stuck_off_rate = 0.1;
  Rng rng(3);
  int on = 0, off = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = program_cell(cfg, 0.5, rng);  // 0.5 = "normal" marker
    if (g == cfg.g_on) ++on;
    if (g == cfg.g_off) ++off;
  }
  EXPECT_NEAR(static_cast<double>(on) / n, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(off) / n, 0.1, 0.01);
}

TEST(DeviceModel, AdcQuantizesToGrid) {
  DeviceConfig cfg;
  cfg.adc_bits = 3;  // 7 steps over [-fs, fs]
  const double fs = 8.0;
  const double q = adc_quantize(cfg, 3.3, fs);
  // Grid: -8 + 16k/7; nearest to 3.3 is k=5 -> 3.4285...
  EXPECT_NEAR(q, -8.0 + 16.0 * 5.0 / 7.0, 1e-9);
  // Saturation at full scale.
  EXPECT_DOUBLE_EQ(adc_quantize(cfg, 100.0, fs), 8.0);
  EXPECT_DOUBLE_EQ(adc_quantize(cfg, -100.0, fs), -8.0);
}

TEST(DeviceModel, AdcDisabledPassesThrough) {
  DeviceConfig cfg;
  EXPECT_DOUBLE_EQ(adc_quantize(cfg, 3.14159, 8.0), 3.14159);
}

TEST(CrossbarArray, IdealMvmEqualsSignMatmul) {
  const Tensor w = random_binary_weight(6, 10, 1.0f, 7);
  Rng rng(8);
  CrossbarArray array(w, DeviceConfig{}, /*tile_cols=*/4, rng);
  EXPECT_EQ(array.rows(), 6u);
  EXPECT_EQ(array.cols(), 10u);
  EXPECT_EQ(array.num_tiles(), 3u);

  Tensor x({2, 10});
  Rng xr(9);
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = xr.bernoulli(0.5) ? 1.0f : -1.0f;
  Rng noise_rng(10);
  Tensor y = array.mvm_pulse(x, noise_rng);
  Tensor expected = ops::matmul_bt(x, w);
  EXPECT_TRUE(ops::allclose(y, expected, 1e-5f, 1e-5f));
}

TEST(CrossbarArray, ScaledWeightsRecoverScale) {
  const Tensor w = random_binary_weight(3, 5, 0.25f, 11);
  Rng rng(12);
  CrossbarArray array(w, DeviceConfig{}, 0, rng);
  EXPECT_FLOAT_EQ(array.weight_scale(), 0.25f);
  // Effective weight is in the sign domain (±1) for ideal devices.
  for (std::size_t i = 0; i < array.effective_weight().numel(); ++i)
    EXPECT_NEAR(std::fabs(array.effective_weight()[i]), 1.0f, 1e-6f);
}

TEST(CrossbarArray, RejectsNonBinaryWeight) {
  Tensor w({2, 2}, std::vector<float>{1.0f, -1.0f, 0.5f, 1.0f});
  Rng rng(13);
  EXPECT_THROW(CrossbarArray(w, DeviceConfig{}, 0, rng), std::invalid_argument);
}

TEST(CrossbarArray, ReadNoisePerturbsOutputs) {
  const Tensor w = random_binary_weight(4, 16, 1.0f, 14);
  DeviceConfig cfg;
  cfg.read_noise_sigma = 0.5;
  Rng rng(15);
  CrossbarArray array(w, cfg, 0, rng);
  Tensor x({1, 16}, 1.0f);
  Rng r1(16);
  Tensor y1 = array.mvm_pulse(x, r1);
  Tensor ideal = ops::matmul_bt(x, w);
  // Should differ from ideal but stay within a few sigma.
  bool differs = false;
  for (std::size_t i = 0; i < y1.numel(); ++i) {
    if (std::fabs(y1[i] - ideal[i]) > 1e-9f) differs = true;
    EXPECT_LT(std::fabs(y1[i] - ideal[i]), 5.0f);
  }
  EXPECT_TRUE(differs);
}

TEST(CrossbarArray, StuckFaultsChangeEffectiveWeight) {
  const Tensor w = random_binary_weight(8, 32, 1.0f, 17);
  DeviceConfig cfg;
  cfg.stuck_off_rate = 0.5;  // heavy faults must visibly corrupt weights
  Rng rng(18);
  CrossbarArray array(w, cfg, 0, rng);
  std::size_t corrupted = 0;
  for (std::size_t i = 0; i < w.numel(); ++i)
    if (std::fabs(array.effective_weight()[i] - (w[i] >= 0 ? 1.0f : -1.0f)) > 1e-6f)
      ++corrupted;
  EXPECT_GT(corrupted, w.numel() / 4);
}

TEST(CrossbarArray, ProgrammingIsFrozenAcrossReads) {
  // Device-to-device variation is sampled once; repeated reads with the same
  // read rng state give identical results when read noise is off.
  const Tensor w = random_binary_weight(4, 8, 1.0f, 19);
  DeviceConfig cfg;
  cfg.program_variation = 0.2;
  Rng rng(20);
  CrossbarArray array(w, cfg, 0, rng);
  Tensor x({1, 8}, 1.0f);
  Rng ra(21), rb(21);
  Tensor y1 = array.mvm_pulse(x, ra);
  Tensor y2 = array.mvm_pulse(x, rb);
  EXPECT_TRUE(ops::allclose(y1, y2, 0.0f, 0.0f));
}

}  // namespace
}  // namespace gbo::xbar
