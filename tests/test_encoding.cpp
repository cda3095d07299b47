// Unit + parameterized property tests for the bit-encoding substrate.
#include "encoding/bit_slicing.hpp"
#include "encoding/thermometer.hpp"
#include "gbo/gbo.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace gbo::enc {
namespace {

TEST(EncodingSpec, Levels) {
  EXPECT_EQ((EncodingSpec{Scheme::kThermometer, 8}).levels(), 9u);
  EXPECT_EQ((EncodingSpec{Scheme::kBitSlicing, 3}).levels(), 8u);
  EXPECT_THROW((EncodingSpec{Scheme::kThermometer, 0}).levels(),
               std::invalid_argument);
}

TEST(EncodingSpec, PulseWeights) {
  const auto tw = EncodingSpec{Scheme::kThermometer, 4}.pulse_weights();
  EXPECT_EQ(tw, (std::vector<double>{1, 1, 1, 1}));
  const auto bw = EncodingSpec{Scheme::kBitSlicing, 4}.pulse_weights();
  EXPECT_EQ(bw, (std::vector<double>{1, 2, 4, 8}));
}

TEST(EncodingSpec, VarianceFactorKnownValues) {
  // Thermometer p pulses: 1/p.
  EXPECT_DOUBLE_EQ((EncodingSpec{Scheme::kThermometer, 8}).noise_variance_factor(),
                   1.0 / 8.0);
  // Bit slicing p=2: (1+4)/(1+2)² = 5/9.
  EXPECT_DOUBLE_EQ((EncodingSpec{Scheme::kBitSlicing, 2}).noise_variance_factor(),
                   5.0 / 9.0);
  // p=1: both are a single pulse -> factor 1.
  EXPECT_DOUBLE_EQ((EncodingSpec{Scheme::kThermometer, 1}).noise_variance_factor(), 1.0);
  EXPECT_DOUBLE_EQ((EncodingSpec{Scheme::kBitSlicing, 1}).noise_variance_factor(), 1.0);
}

TEST(Thermometer, LevelMapping) {
  // 8 pulses, 9 levels: value (2k-8)/8.
  EXPECT_EQ(thermometer_level(-1.0f, 8), 0u);
  EXPECT_EQ(thermometer_level(0.0f, 8), 4u);
  EXPECT_EQ(thermometer_level(1.0f, 8), 8u);
  EXPECT_EQ(thermometer_level(0.25f, 8), 5u);
}

TEST(Thermometer, LevelEqualsLroundAroundEveryRoundingThreshold) {
  // thermometer_level rounds by truncate-and-compare instead of lround;
  // it must give lround's level on the same float product everywhere.
  auto lround_level = [](float v, std::size_t n) {
    v = v > 1.0f ? 1.0f : (v < -1.0f ? -1.0f : v);
    const long idx = std::lround((v + 1.0f) * 0.5f * static_cast<float>(n));
    return static_cast<std::size_t>(idx < 0 ? 0 : idx);
  };
  std::vector<std::size_t> counts = opt::GboConfig{}.pulse_lengths();
  counts.push_back(1);
  counts.push_back(16);
  for (std::size_t n : counts) {
    std::size_t checked = 0, mismatches = 0;
    for (std::size_t k = 0; k < n; ++k) {
      // The value whose product lands on the tie k + 1/2, ±2^12 ulps.
      const float tie = (2.0f * static_cast<float>(k) + 1.0f) /
                            static_cast<float>(n) - 1.0f;
      float v = tie;
      for (int i = 0; i < 4096; ++i) v = std::nextafter(v, -2.0f);
      for (int i = 0; i <= 2 * 4096; ++i, v = std::nextafter(v, 2.0f)) {
        ++checked;
        if (thermometer_level(v, n) != lround_level(v, n)) ++mismatches;
      }
    }
    EXPECT_EQ(checked, n * 8193) << "n=" << n;
    EXPECT_EQ(mismatches, 0u) << "n=" << n;
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(thermometer_level(std::numeric_limits<float>::quiet_NaN(), n),
              0u);
    EXPECT_EQ(thermometer_level(inf, n), n);
    EXPECT_EQ(thermometer_level(-inf, n), 0u);
    for (float v : {0.0f, -0.0f, 1.0f, -1.0f})
      EXPECT_EQ(thermometer_level(v, n), lround_level(v, n)) << v;
  }
}

TEST(Thermometer, EncodeDecodeRoundTripAllLevels) {
  for (std::size_t p : {2u, 4u, 8u, 16u}) {
    Tensor values({p + 1});
    for (std::size_t k = 0; k <= p; ++k)
      values[k] = 2.0f * static_cast<float>(k) / static_cast<float>(p) - 1.0f;
    PulseTrain train = thermometer_encode(values, p);
    Tensor decoded = train.decode();
    EXPECT_TRUE(ops::allclose(decoded, values, 1e-5f, 1e-6f))
        << "p=" << p;
  }
}

TEST(Thermometer, PulsesAreMonotone) {
  // Thermometer property: pulse i fires only if pulse i-1 fires.
  Rng rng(5);
  Tensor x({64});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  PulseTrain train = thermometer_encode(x, 8);
  for (std::size_t j = 0; j < x.numel(); ++j)
    for (std::size_t i = 1; i < 8; ++i)
      EXPECT_LE(train.pulses[i][j], train.pulses[i - 1][j]);
}

TEST(Thermometer, SnapIsNearestLevel) {
  EXPECT_FLOAT_EQ(thermometer_snap(0.3f, 8), 0.25f);
  EXPECT_FLOAT_EQ(thermometer_snap(0.95f, 8), 1.0f);
  EXPECT_FLOAT_EQ(thermometer_snap(-0.13f, 8), -0.25f);
}

TEST(BitSlicing, LevelMapping) {
  EXPECT_EQ(bit_slicing_level(-1.0f, 3), 0u);
  EXPECT_EQ(bit_slicing_level(1.0f, 3), 7u);
  EXPECT_EQ(bit_slicing_level(0.0f, 3), 4u);  // round(0.5*7) = 4
}

TEST(BitSlicing, EncodeDecodeRoundTripAllLevels) {
  for (std::size_t p : {1u, 2u, 3u, 4u, 6u}) {
    const std::size_t levels = 1u << p;
    Tensor values({levels});
    for (std::size_t k = 0; k < levels; ++k)
      values[k] =
          2.0f * static_cast<float>(k) / static_cast<float>(levels - 1) - 1.0f;
    PulseTrain train = bit_slicing_encode(values, p);
    Tensor decoded = train.decode();
    EXPECT_TRUE(ops::allclose(decoded, values, 1e-5f, 1e-6f)) << "p=" << p;
  }
}

TEST(BitSlicing, PulsesMatchBits) {
  // Level 5 = 0b101 with 3 pulses: pulse0=+1, pulse1=-1, pulse2=+1.
  Tensor v({1}, std::vector<float>{2.0f * 5.0f / 7.0f - 1.0f});
  PulseTrain train = bit_slicing_encode(v, 3);
  EXPECT_FLOAT_EQ(train.pulses[0][0], 1.0f);
  EXPECT_FLOAT_EQ(train.pulses[1][0], -1.0f);
  EXPECT_FLOAT_EQ(train.pulses[2][0], 1.0f);
}

TEST(PulseTrain, DecodeValidation) {
  PulseTrain empty;
  EXPECT_THROW(empty.decode(), std::invalid_argument);
}

// ---- parameterized property sweep -----------------------------------------

class EncodingRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EncodingRoundTrip, ThermometerDecodeEqualsSnap) {
  const std::size_t p = GetParam();
  Rng rng(p);
  Tensor x({128});
  ops::fill_uniform(x, rng, -1.2f, 1.2f);  // includes out-of-range values
  PulseTrain train = thermometer_encode(x, p);
  Tensor decoded = train.decode();
  for (std::size_t i = 0; i < x.numel(); ++i)
    EXPECT_NEAR(decoded[i], thermometer_snap(x[i], p), 1e-5f);
}

TEST_P(EncodingRoundTrip, ThermometerErrorBoundedByHalfStep) {
  const std::size_t p = GetParam();
  Rng rng(p + 100);
  Tensor x({128});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  PulseTrain train = thermometer_encode(x, p);
  Tensor decoded = train.decode();
  const float half_step = 1.0f / static_cast<float>(p);
  for (std::size_t i = 0; i < x.numel(); ++i)
    EXPECT_LE(std::fabs(decoded[i] - x[i]), half_step + 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(PulseCounts, EncodingRoundTrip,
                         ::testing::Values(1, 2, 4, 6, 8, 10, 12, 14, 16, 24));

}  // namespace
}  // namespace gbo::enc
