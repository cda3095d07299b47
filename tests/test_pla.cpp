// Tests of Pulse Length Approximation (paper §III-B).
#include "encoding/pla.hpp"
#include "quant/act_quant.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace gbo::enc {
namespace {

TEST(Pla, ScaledPulseCount) {
  // Paper's Ω = {0.5..2} with p = 8 yields {4, 6, 8, 10, 12, 14, 16}.
  const std::vector<double> omega{0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0};
  const std::vector<std::size_t> expected{4, 6, 8, 10, 12, 14, 16};
  for (std::size_t i = 0; i < omega.size(); ++i)
    EXPECT_EQ(scaled_pulse_count(omega[i], 8), expected[i]);
}

TEST(Pla, ScaledPulseCountNeverZero) {
  EXPECT_EQ(scaled_pulse_count(0.01, 8), 1u);
  EXPECT_EQ(scaled_pulse_count(0.0, 8), 1u);
}

TEST(Pla, ApproximateIsIdentityAtBasePulses) {
  // Values already on the 9-level grid are exactly representable at 8 pulses.
  Tensor x({9});
  for (std::size_t k = 0; k < 9; ++k) x[k] = static_cast<float>(k) * 0.25f - 1.0f;
  Tensor approx = pla_approximate(x, 8);
  EXPECT_TRUE(ops::allclose(approx, x, 0.0f, 1e-6f));
}

TEST(Pla, ExtremesAlwaysExact) {
  // ±1 are representable at every pulse count — the reason PLA works on
  // BN+Tanh activations that concentrate at ±1.
  Tensor x({2}, std::vector<float>{-1.0f, 1.0f});
  for (std::size_t n : {4u, 6u, 10u, 12u, 14u, 16u}) {
    Tensor approx = pla_approximate(x, n);
    EXPECT_FLOAT_EQ(approx[0], -1.0f) << n;
    EXPECT_FLOAT_EQ(approx[1], 1.0f) << n;
  }
}

TEST(Pla, ErrorBoundedByHalfStep) {
  Rng rng(3);
  Tensor x({512});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  Tensor q = quant::quantize(x, 9);  // base 9-level activations
  for (std::size_t n : {4u, 6u, 10u, 12u, 14u, 16u}) {
    const auto stats = pla_error(q, n);
    EXPECT_LE(stats.max_abs_error, 1.0 / static_cast<double>(n) + 1e-6) << n;
    EXPECT_LE(stats.mean_abs_error, stats.max_abs_error);
    EXPECT_LE(stats.rms_error, stats.max_abs_error + 1e-12);
  }
}

TEST(Pla, ErrorShrinksWithMorePulses) {
  Rng rng(4);
  Tensor x({2048});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  Tensor q = quant::quantize(x, 9);
  const auto e10 = pla_error(q, 10);
  const auto e14 = pla_error(q, 14);
  const auto e56 = pla_error(q, 56);  // LCM-ish large count: near zero error
  EXPECT_GE(e10.rms_error, e14.rms_error * 0.9);
  EXPECT_LT(e56.rms_error, 1e-6);
}

TEST(Pla, SaturatedActivationsHaveZeroError) {
  // A distribution concentrated on ±1 (deep-layer BN+Tanh regime, paper's
  // empirical justification) suffers no PLA error at any pulse count.
  Tensor x({100});
  for (std::size_t i = 0; i < 100; ++i) x[i] = i % 2 ? 1.0f : -1.0f;
  for (std::size_t n : {4u, 6u, 10u, 14u}) {
    const auto stats = pla_error(x, n);
    EXPECT_EQ(stats.max_abs_error, 0.0) << n;
  }
}

TEST(Pla, EncodeDecodesToApproximation) {
  Rng rng(5);
  Tensor x({64});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  for (std::size_t n : {6u, 10u, 14u}) {
    PulseTrain train = pla_encode(x, n);
    EXPECT_EQ(train.pulses.size(), n);
    Tensor decoded = train.decode();
    Tensor approx = pla_approximate(x, n);
    EXPECT_TRUE(ops::allclose(decoded, approx, 1e-5f, 1e-6f)) << n;
  }
}

TEST(Pla, VectorSnapBitwiseEqualsScalarSnap) {
  // pla_approximate(_inplace) runs a SIMD snap where the CPU has one; it
  // must return thermometer_snap's float bit for bit: over a dense sweep of
  // [-1.5, 1.5], the IEEE specials, and every half-way point between two
  // levels (where the rounding decides) with its float neighbours.
  std::vector<float> xs;
  const std::size_t kSweep = 1 << 20;
  for (std::size_t i = 0; i <= kSweep; ++i)
    xs.push_back(-1.5f + 3.0f * static_cast<float>(i) /
                             static_cast<float>(kSweep));
  const float inf = std::numeric_limits<float>::infinity();
  for (const float v : {0.0f, -0.0f, inf, -inf,
                        std::numeric_limits<float>::quiet_NaN(), 1.0f, -1.0f})
    xs.push_back(v);
  for (const std::size_t n : {4u, 6u, 8u, 10u, 12u, 14u, 16u}) {
    std::vector<float> in = xs;
    const float p = static_cast<float>(n);
    for (std::size_t l = 0; l < n; ++l) {
      // Value whose t = (v + 1)·0.5·p lands on l + 0.5, and its neighbours.
      float mid = (2.0f * static_cast<float>(l) + 1.0f) / p - 1.0f;
      for (int step = 0; step < 4; ++step) mid = std::nextafter(mid, -2.0f);
      for (int step = 0; step < 9; ++step) {
        in.push_back(mid);
        mid = std::nextafter(mid, 2.0f);
      }
    }
    in.push_back(0.5f);  // odd length: the vector loop leaves a scalar tail
    Tensor x({in.size()}, in);
    const Tensor copy = pla_approximate(x, n);
    pla_approximate_inplace(x, n);
    const float* got = x.data();
    const float* got_copy = copy.data();
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      const float want = thermometer_snap(in[i], n);
      if (std::memcmp(&want, got + i, sizeof(float)) != 0 ||
          std::memcmp(&want, got_copy + i, sizeof(float)) != 0) {
        if (++mismatches <= 5)
          ADD_FAILURE() << "n=" << n << " x=" << in[i] << " want " << want
                        << " got " << got[i] << " / " << got_copy[i];
      }
    }
    EXPECT_EQ(mismatches, 0u) << "n=" << n;
  }
}

}  // namespace
}  // namespace gbo::enc
