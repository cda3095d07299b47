#include "common/rng.hpp"

#include "common/cpu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace gbo {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaleAndShift) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkIsDeterministic) {
  Rng parent(5);
  Rng a = parent.fork(1);
  Rng b = parent.fork(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ForkStreamsIndependent) {
  Rng parent(5);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng p1(5), p2(5);
  (void)p1.fork(9);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(p1(), p2());
}

// ---- batched normals: fill_normal == sequential normal(), bitwise ---------

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Sequential float-cast normal() draws over the concatenated `lengths`,
/// and the generator state they leave.
struct SequentialDraws {
  std::vector<float> values;
  Rng after;
};

SequentialDraws sequential_draws(const std::vector<std::size_t>& lengths,
                                 double mean, double stddev,
                                 std::uint64_t seed) {
  SequentialDraws s{{}, Rng(seed)};
  for (std::size_t n : lengths)
    for (std::size_t i = 0; i < n; ++i)
      s.values.push_back(static_cast<float>(s.after.normal(mean, stddev)));
  return s;
}

/// Fills `lengths` chunks with fill_normal_with(kern) from the same seed and
/// expects every float, and the generator state after the last chunk
/// (cached normal included), to equal the sequential draws. Returns the
/// guard's recompute count.
std::size_t expect_stream_match(const NormalKernel& kern,
                                const std::vector<std::size_t>& lengths,
                                double mean, double stddev,
                                const SequentialDraws& want,
                                std::uint64_t seed) {
  Rng bat(seed);
  std::vector<float> got(want.values.size(), -7.0f);
  std::size_t recomputed = 0, at = 0, mismatches = 0;
  for (std::size_t n : lengths) {
    recomputed += bat.fill_normal_with(kern, got.data() + at, n, mean, stddev);
    at += n;
  }
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!same_bits(want.values[i], got[i])) ++mismatches;
  EXPECT_EQ(mismatches, 0u) << kern.name;
  Rng seq = want.after;
  EXPECT_EQ(seq.normal(), bat.normal()) << kern.name;
  EXPECT_EQ(seq(), bat()) << kern.name;
  return recomputed;
}

std::size_t expect_stream_match(const NormalKernel& kern,
                                const std::vector<std::size_t>& lengths,
                                double mean, double stddev) {
  const std::uint64_t seed = 99;
  return expect_stream_match(kern, lengths, mean, stddev,
                             sequential_draws(lengths, mean, stddev, seed),
                             seed);
}

TEST(RngFillNormal, RegistryScalarFirstAndDispatchedLast) {
  const auto& ks = normal_kernels();
  ASSERT_FALSE(ks.empty());
  EXPECT_EQ(ks.front(), &normal_kernel_scalar());
  EXPECT_EQ(&normal_kernel(),
            force_scalar_kernels() ? &normal_kernel_scalar() : ks.back());
}

TEST(RngFillNormal, TenMillionDrawsMatchSequentialNormal) {
  // Mixed chunk lengths so the cached sine half is carried in and out of
  // calls; 2 * 4 999 999 + 3 = 10^7 + 1 draws per entry.
  const std::vector<std::size_t> lengths = {3, 4999999, 4999999};
  const SequentialDraws want = sequential_draws(lengths, 0.0, 1.0, 2024);
  for (const NormalKernel* k : normal_kernels()) {
    const std::size_t recomputed =
        expect_stream_match(*k, lengths, 0.0, 1.0, want, 2024);
    if (k == &normal_kernel_scalar()) {
      EXPECT_EQ(recomputed, 0u);
    } else {
      // ~2^-17 of pairs land in the guard band: the fallback really runs.
      EXPECT_GT(recomputed, 0u) << k->name;
      EXPECT_LT(recomputed, 2000u) << k->name;
    }
  }
}

TEST(RngFillNormal, LengthsCachesMeansAndZeroStddev) {
  const std::vector<std::size_t> lengths = {0, 1, 1, 2, 3, 0, 5, 4, 1, 513,
                                            2, 7, 0, 1, 16, 17, 255, 256, 1};
  for (const NormalKernel* k : normal_kernels()) {
    expect_stream_match(*k, lengths, 0.0, 1.0);
    expect_stream_match(*k, lengths, 2.5, 0.125);
    expect_stream_match(*k, lengths, -1e-3, 7.0);
    expect_stream_match(*k, lengths, 0.3, 0.0);
    expect_stream_match(*k, lengths, 0.0, 0.0);
    expect_stream_match(*k, lengths, 0.0, static_cast<float>(1.0 / 3.0));
  }
}

TEST(RngFillNormal, MixedWithScalarDrawsOnOneStream) {
  // Scalar double draws (crossbar read noise) and batched float fills
  // interleave on one generator in the pulse path.
  for (const NormalKernel* k : normal_kernels()) {
    Rng seq(5), bat(5);
    for (std::size_t round = 0; round < 50; ++round) {
      for (std::size_t j = 0; j < round % 3; ++j)
        EXPECT_EQ(seq.normal(0.0, 0.5), bat.normal(0.0, 0.5));
      std::vector<float> got(round);
      bat.fill_normal_with(*k, got.data(), got.size(), 0.0, 2.0);
      for (float g : got)
        EXPECT_TRUE(same_bits(g, static_cast<float>(seq.normal(0.0, 2.0))));
    }
  }
}

/// Uniform pairs where the vector transforms are hardest: u1 next to 1
/// (r -> 0, ln u1 ~ -2^-53), u1 tiny, and θ = 2π·u2 next to every multiple
/// of π/2 (cos or sin -> 0), plus random pairs.
void hard_uniforms(std::vector<double>& u1, std::vector<double>& u2) {
  const std::vector<double> ones = {1.0 - 0x1p-53, 1.0 - 0x1p-52,
                                    1.0 - 3 * 0x1p-53, 1.0 - 1e-10,
                                    0.999, 0.5, 0x1p-53, 0x1p-40, 0.75};
  for (double a : ones) {
    for (int q = 0; q <= 4; ++q) {
      double up = q / 4.0, down = q / 4.0;
      for (int step = 0; step < 8; ++step) {
        down = std::nextafter(down, 0.0);
        for (double b : {up, down}) {
          if (b < 0.0 || b >= 1.0) continue;
          u1.push_back(a);
          u2.push_back(b);
        }
        up = std::nextafter(up, 1.0);
      }
    }
  }
  Rng rng(77);
  for (int i = 0; i < 100000; ++i) {
    double a = 0.0;
    do {
      a = rng.uniform();
    } while (a <= 0.0);
    u1.push_back(a);
    u2.push_back(rng.uniform());
  }
}

TEST(RngFillNormal, ExplicitUniformsWithinErrorBudgetAndBitwiseAfterGuard) {
  std::vector<double> u1, u2;
  hard_uniforms(u1, u2);
  const std::size_t pairs = u1.size();
  std::vector<double> c0(pairs), s0(pairs), c(pairs), s(pairs);
  normal_kernel_scalar().raw(u1.data(), u2.data(), pairs, c0.data(), s0.data());
  // (mean, stddev) cases; the second puts mean + stddev·z right at the
  // float midpoint 0.5 + 2^-25, where only the guard's fallback is exact.
  const std::vector<std::pair<double, double>> cases = {
      {0.0, 1.0}, {0.5 + 0x1p-25, 0x1p-60}, {1e-3, 7.5}, {-4.0, 0.0}};
  for (const NormalKernel* k : normal_kernels()) {
    k->raw(u1.data(), u2.data(), pairs, c.data(), s.data());
    double worst = 0.0;
    for (std::size_t i = 0; i < pairs; ++i) {
      worst = std::max(worst, std::fabs(c[i] - c0[i]) / std::fabs(c0[i]));
      worst = std::max(worst, std::fabs(s[i] - s0[i]) / std::fabs(s0[i]));
    }
    EXPECT_LE(worst, 0x1p-44) << k->name;
    for (const auto& [mean, stddev] : cases) {
      std::vector<float> want(2 * pairs), got(2 * pairs);
      normal_kernel_scalar().transform(u1.data(), u2.data(), pairs, mean,
                                       stddev, want.data());
      const std::size_t recomputed = k->transform(u1.data(), u2.data(), pairs,
                                                  mean, stddev, got.data());
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < want.size(); ++i)
        if (!same_bits(want[i], got[i])) ++mismatches;
      EXPECT_EQ(mismatches, 0u) << k->name << " mean " << mean;
      if (k != &normal_kernel_scalar() && mean == 0.5 + 0x1p-25) {
        EXPECT_GT(recomputed, pairs / 2) << k->name;
      }
    }
    // Pairs whose vector cosine half differs from libm's in the last bits,
    // scaled so libm's value sits on the float midpoint 1 + 2^-24: without
    // the guard, the vector value would often round the other way. Eight
    // copies of the pair fill whole SIMD groups.
    std::size_t constructed = 0, mismatches = 0;
    for (std::size_t i = 0; i < pairs && constructed < 256; ++i) {
      if (c[i] == c0[i]) continue;
      ++constructed;
      const double stddev = (1.0 + 0x1p-24) / c0[i];
      const std::vector<double> a(8, u1[i]), b(8, u2[i]);
      float want[16], got[16];
      normal_kernel_scalar().transform(a.data(), b.data(), 8, 0.0, stddev,
                                       want);
      k->transform(a.data(), b.data(), 8, 0.0, stddev, got);
      for (int j = 0; j < 16; ++j)
        if (!same_bits(want[j], got[j])) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << k->name;
    if (k != &normal_kernel_scalar()) {
      EXPECT_EQ(constructed, 256u) << k->name;
    }
  }
}

}  // namespace
}  // namespace gbo
