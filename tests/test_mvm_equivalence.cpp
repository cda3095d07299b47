// The paper's Eq. 2–4 as an executable property: the analytic noise model
// (single Gaussian with closed-form accumulated variance) must match the
// pulse-level simulation (one noisy crossbar read per pulse) in both mean
// and variance, for both encodings, across pulse counts and noise levels.
#include "crossbar/mvm_engine.hpp"

#include "common/thread_pool.hpp"
#include "gbo/gbo.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>

namespace gbo::xbar {
namespace {

Tensor random_binary_weight(std::size_t out, std::size_t in, std::uint64_t seed) {
  Rng rng(seed);
  Tensor w({out, in});
  for (std::size_t i = 0; i < w.numel(); ++i)
    w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  return w;
}

Tensor random_activations(std::size_t n, std::size_t in, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x({n, in});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  return x;
}

TEST(MvmEngine, NoiselessPulseLevelEqualsIdeal) {
  const Tensor w = random_binary_weight(8, 24, 1);
  for (auto scheme : {enc::Scheme::kThermometer, enc::Scheme::kBitSlicing}) {
    MvmConfig cfg;
    cfg.spec = enc::EncodingSpec{scheme, scheme == enc::Scheme::kThermometer
                                             ? std::size_t{8}
                                             : std::size_t{4}};
    cfg.sigma = 0.0;
    MvmEngine engine(w, cfg, Rng(2));
    const Tensor x = random_activations(4, 24, 3);
    Tensor pulse = engine.run_pulse_level(x);
    Tensor ideal = engine.run_ideal(x);
    EXPECT_TRUE(ops::allclose(pulse, ideal, 1e-4f, 1e-4f))
        << enc::scheme_name(scheme);
  }
}

TEST(MvmEngine, AnalyticNoiselessEqualsIdeal) {
  const Tensor w = random_binary_weight(8, 24, 4);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 8};
  cfg.sigma = 0.0;
  MvmEngine engine(w, cfg, Rng(5));
  const Tensor x = random_activations(4, 24, 6);
  EXPECT_TRUE(ops::allclose(engine.run_analytic(x), engine.run_ideal(x), 1e-5f,
                            1e-5f));
}

struct EquivCase {
  enc::Scheme scheme;
  std::size_t pulses;
  double sigma;
};

class MvmEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(MvmEquivalence, PulseAndAnalyticAgreeInMeanAndVariance) {
  const auto param = GetParam();
  const Tensor w = random_binary_weight(4, 16, 7);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{param.scheme, param.pulses};
  cfg.sigma = param.sigma;
  const Tensor x = random_activations(1, 16, 8);

  MvmEngine engine(w, cfg, Rng(9));
  const Tensor ideal = engine.run_ideal(x);

  const int trials = 2000;
  auto collect = [&](bool pulse_mode) {
    // mean/variance of the first output element's noise across trials
    std::vector<double> mean(4, 0.0), m2(4, 0.0);
    for (int t = 0; t < trials; ++t) {
      Tensor y = pulse_mode ? engine.run_pulse_level(x) : engine.run_analytic(x);
      for (std::size_t o = 0; o < 4; ++o) {
        const double d = y.at(0, o) - ideal.at(0, o);
        const double delta = d - mean[o];
        mean[o] += delta / (t + 1);
        m2[o] += delta * (d - mean[o]);
      }
    }
    for (auto& v : m2) v /= trials - 1;
    return std::make_pair(mean, m2);
  };

  const auto [pulse_mean, pulse_var] = collect(true);
  const auto [ana_mean, ana_var] = collect(false);
  const double expected_var =
      param.sigma * param.sigma * cfg.spec.noise_variance_factor();

  for (std::size_t o = 0; o < 4; ++o) {
    const double se = std::sqrt(expected_var / trials);
    EXPECT_NEAR(pulse_mean[o], 0.0, 6.0 * se) << "pulse mean, o=" << o;
    EXPECT_NEAR(ana_mean[o], 0.0, 6.0 * se) << "analytic mean, o=" << o;
    // Sample variance of a Gaussian: rel. std-error ≈ sqrt(2/(n-1)) ≈ 3.2%.
    EXPECT_NEAR(pulse_var[o] / expected_var, 1.0, 0.2) << "pulse var, o=" << o;
    EXPECT_NEAR(ana_var[o] / expected_var, 1.0, 0.2) << "analytic var, o=" << o;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MvmEquivalence,
    ::testing::Values(
        EquivCase{enc::Scheme::kThermometer, 4, 1.0},
        EquivCase{enc::Scheme::kThermometer, 8, 1.0},
        EquivCase{enc::Scheme::kThermometer, 8, 4.0},
        EquivCase{enc::Scheme::kThermometer, 16, 2.0},
        EquivCase{enc::Scheme::kBitSlicing, 2, 1.0},
        EquivCase{enc::Scheme::kBitSlicing, 3, 2.0},
        EquivCase{enc::Scheme::kBitSlicing, 4, 1.0}));

TEST(MvmEngine, ThermometerBeatsBitSlicingAtEqualBits) {
  // End-to-end validation of Fig. 1b on the simulator: 3-bit information,
  // same σ — thermometer (7 pulses) must show lower output noise variance
  // than bit slicing (3 pulses).
  const Tensor w = random_binary_weight(4, 16, 10);
  const Tensor x = random_activations(1, 16, 11);
  auto noise_var = [&](enc::Scheme scheme, std::size_t pulses) {
    MvmConfig cfg;
    cfg.spec = enc::EncodingSpec{scheme, pulses};
    cfg.sigma = 2.0;
    MvmEngine engine(w, cfg, Rng(12));
    const Tensor ideal = engine.run_ideal(x);
    double acc = 0.0;
    const int trials = 1500;
    for (int t = 0; t < trials; ++t) {
      Tensor y = engine.run_pulse_level(x);
      const double d = y.at(0, 0) - ideal.at(0, 0);
      acc += d * d;
    }
    return acc / trials;
  };
  const double tc = noise_var(enc::Scheme::kThermometer, 7);
  const double bs = noise_var(enc::Scheme::kBitSlicing, 3);
  EXPECT_LT(tc, bs * 0.6);  // theory predicts ratio (1/7)/(21/49) ≈ 0.33
}

// ---- fused vs. reference pulse-level path --------------------------------
//
// run_pulse_level is the fused batch-major sweep; run_pulse_level_reference
// is the retained pre-refactor scalar path (one crossbar read per pulse).
// For the same seed they consume rng in the same order and must agree
// BITWISE — across encodings, device models, ragged tiling, and any thread
// count.

Tensor run_with_threads(const Tensor& w, const MvmConfig& cfg, const Tensor& x,
                        std::size_t threads, bool fused) {
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  pool.set_num_threads(threads);
  MvmEngine engine(w, cfg, Rng(42));
  Tensor y = fused ? engine.run_pulse_level(x)
                   : engine.run_pulse_level_reference(x);
  pool.set_num_threads(restore);
  return y;
}

struct FusedCase {
  const char* name;
  enc::Scheme scheme;
  std::size_t pulses;
  double sigma;
  DeviceConfig device;
};

std::vector<FusedCase> fused_cases() {
  std::vector<FusedCase> cases;
  cases.push_back({"ideal_thermo", enc::Scheme::kThermometer, 8, 1.5, {}});
  cases.push_back({"ideal_bits", enc::Scheme::kBitSlicing, 4, 2.0, {}});
  {
    // Read noise + ADC + programming variation on ragged tiles.
    DeviceConfig d;
    d.program_variation = 0.1;
    d.read_noise_sigma = 0.05;
    d.adc_bits = 8;
    cases.push_back({"noisy_adc", enc::Scheme::kThermometer, 8, 1.0, d});
  }
  {
    DeviceConfig d;
    d.mapping = WeightMapping::kOffset;
    d.g_on = 1.0;
    d.g_off = 0.1;
    d.read_noise_sigma = 0.02;
    d.adc_bits = 10;
    cases.push_back({"offset_noisy", enc::Scheme::kBitSlicing, 3, 0.5, d});
  }
  return cases;
}

TEST(MvmEngine, FusedPulsePathMatchesReferenceBitwiseAtAnyThreadCount) {
  const Tensor w = random_binary_weight(9, 37, 21);  // ragged against tile_cols
  const Tensor x = random_activations(5, 37, 22);
  for (const FusedCase& c : fused_cases()) {
    MvmConfig cfg;
    cfg.spec = enc::EncodingSpec{c.scheme, c.pulses};
    cfg.sigma = c.sigma;
    cfg.device = c.device;
    cfg.tile_cols = 16;  // 37 inputs -> tiles of 16, 16, 5

    const Tensor ref = run_with_threads(w, cfg, x, 1, /*fused=*/false);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const Tensor fused = run_with_threads(w, cfg, x, threads, /*fused=*/true);
      ASSERT_TRUE(fused.same_shape(ref)) << c.name;
      EXPECT_EQ(0, std::memcmp(fused.data(), ref.data(),
                               ref.numel() * sizeof(float)))
          << c.name << " diverges at " << threads << " thread(s)";
    }
  }
}

// ---- level-bucket sums under the exactness certificate ----------------
//
// A certified array sums thermometer pulses by level buckets instead of one
// dot product per pulse (DESIGN.md §12). The certificate makes those sums
// exact, so the result must equal the per-pulse reference bit for bit.

/// Runs `cfg` fused at 1 and 4 threads against the single-thread
/// reference; returns whether the array took the level-bucket path.
bool expect_fused_matches_reference(const Tensor& w, const MvmConfig& cfg,
                                    const Tensor& x, const std::string& name) {
  const Tensor ref = run_with_threads(w, cfg, x, 1, /*fused=*/false);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const Tensor fused = run_with_threads(w, cfg, x, threads, /*fused=*/true);
    EXPECT_TRUE(fused.same_shape(ref)) << name;
    EXPECT_EQ(0, std::memcmp(fused.data(), ref.data(),
                             ref.numel() * sizeof(float)))
        << name << " diverges at " << threads << " thread(s)";
  }
  return MvmEngine(w, cfg, Rng(42)).array().exact_tile_sums();
}

TEST(MvmEngine, CertifiedBucketSumsMatchReferenceAtEveryPulseCount) {
  const Tensor w = random_binary_weight(9, 37, 51);  // tiles of 16, 16, 5
  Tensor x = random_activations(5, 37, 52);
  // Saturated inputs pile whole tiles into the extreme buckets.
  for (std::size_t j = 0; j < 8; ++j) x.at(0, j) = j % 2 ? 1.0f : -1.0f;
  for (WeightMapping mapping :
       {WeightMapping::kDifferential, WeightMapping::kOffset}) {
    DeviceConfig d;
    d.mapping = mapping;
    d.g_off = mapping == WeightMapping::kOffset ? 0.1 : 0.0;
    d.program_variation = 0.1;
    d.stuck_on_rate = 0.05;
    d.stuck_off_rate = 0.05;
    d.read_noise_sigma = 0.05;
    d.adc_bits = 8;
    for (std::size_t pulses : opt::GboConfig{}.pulse_lengths()) {
      MvmConfig cfg;
      cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, pulses};
      cfg.sigma = 0.7;
      cfg.device = d;
      cfg.tile_cols = 16;
      const std::string name =
          std::string(mapping == WeightMapping::kOffset ? "offset" : "diff") +
          " n=" + std::to_string(pulses);
      EXPECT_TRUE(expect_fused_matches_reference(w, cfg, x, name))
          << name << " did not take the level-bucket path";
    }
  }
}

TEST(MvmEngine, UncertifiedArrayFallsBackBitwise) {
  // Lognormal variation this wide spreads the cell values over ~2^170:
  // no 2^q grid fits a tile sum in 53 bits, so the certificate must fail
  // and the sweep run the sequential dot products.
  const Tensor w = random_binary_weight(9, 37, 53);
  const Tensor x = random_activations(5, 37, 54);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 6};
  cfg.sigma = 0.5;
  cfg.device.program_variation = 20.0;
  cfg.device.read_noise_sigma = 0.05;
  cfg.tile_cols = 16;
  EXPECT_FALSE(expect_fused_matches_reference(w, cfg, x, "spread"));
}

TEST(MvmEngine, TileSummingToZeroGivesPositiveZero) {
  // Two saturated-high and two saturated-low inputs under equal weights:
  // every pulse's tile current cancels exactly. The sequential dot product
  // yields +0.0, and so does 2·S − T; the output must be +0.0, bitwise
  // equal to the reference.
  const Tensor w({1, 4}, {1.0f, 1.0f, 1.0f, 1.0f});
  const Tensor x({1, 4}, {1.0f, -1.0f, 1.0f, -1.0f});
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 6};
  cfg.sigma = 0.0;
  EXPECT_TRUE(expect_fused_matches_reference(w, cfg, x, "zero"));
  MvmEngine engine(w, cfg, Rng(1));
  const Tensor y = engine.run_pulse_level(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_FALSE(std::signbit(y[0]));
}

TEST(MvmEngine, PerSampleStreamsMatchPerRequestGroupsBitwise) {
  // The row-stream contract with group > 1 (DESIGN.md §6) — the fused conv
  // serving case, where each sample's oh·ow patch rows share one stream:
  // sample s of a fused batch must be bitwise equal to running its row
  // group alone under the same stream, for every stochastic term (read
  // noise, ADC, Eq. 1 output noise) and at any thread count.
  const Tensor w = random_binary_weight(9, 37, 31);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 6};
  cfg.sigma = 0.8;
  cfg.device.read_noise_sigma = 0.05;
  cfg.device.adc_bits = 8;
  cfg.tile_cols = 16;
  const std::size_t group = 3, streams = 4, in = 37;
  const Tensor x = random_activations(group * streams, in, 32);
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t restore = pool.num_threads();
  MvmEngine engine(w, cfg, Rng(33));

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    pool.set_num_threads(threads);
    Rng root(39);
    std::vector<Rng> rngs;
    for (std::size_t s = 0; s < streams; ++s) rngs.push_back(root.fork(s));
    const Tensor fused = engine.run_pulse_level(x, rngs);
    ASSERT_EQ(fused.dim(0), group * streams);
    const std::size_t out = fused.dim(1);
    for (std::size_t s = 0; s < streams; ++s) {
      Tensor xs({group, in});
      std::copy(x.data() + s * group * in, x.data() + (s + 1) * group * in,
                xs.data());
      Rng r = root.fork(s);
      const Tensor alone = engine.run_pulse_level(xs, {&r, 1});
      EXPECT_EQ(0, std::memcmp(alone.data(), fused.data() + s * group * out,
                               group * out * sizeof(float)))
          << "stream " << s << " at " << threads << " thread(s)";
    }
  }
  pool.set_num_threads(restore);

  // Degenerate-stream guards.
  Rng r(1);
  EXPECT_THROW(engine.run_pulse_level(x, {&r, 0}), std::invalid_argument);
  EXPECT_THROW(engine.run_pulse_level(x, {&r, 5}), std::invalid_argument);
}

TEST(MvmEngine, ZeroRowBatchWorksEvenWithReadNoise) {
  // Regression: the fused path must not reject an empty batch just because
  // read noise is enabled (zero draws are needed for zero rows).
  const Tensor w = random_binary_weight(5, 8, 31);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 4};
  cfg.sigma = 1.0;
  cfg.device.read_noise_sigma = 0.1;
  MvmEngine engine(w, cfg, Rng(32));
  const Tensor x({0, 8});
  const Tensor y = engine.run_pulse_level(x);
  ASSERT_EQ(y.ndim(), 2u);
  EXPECT_EQ(y.dim(0), 0u);
  EXPECT_EQ(y.dim(1), 5u);
}

TEST(MvmEngine, EmptyPulseTrainYieldsZeroFilledResult) {
  const Tensor w = random_binary_weight(6, 12, 23);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 0};
  cfg.sigma = 1.0;
  MvmEngine engine(w, cfg, Rng(24));
  const Tensor x = random_activations(3, 12, 25);
  const Tensor y = engine.run_pulse_level(x);
  ASSERT_EQ(y.ndim(), 2u);
  EXPECT_EQ(y.dim(0), 3u);
  EXPECT_EQ(y.dim(1), 6u);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 0.0f);
}

TEST(MvmEngine, DeviceVariationIsSharedBetweenModes) {
  // With frozen programming variation and σ = 0, analytic mode must
  // reproduce the *same* corrupted weights as pulse-level mode.
  const Tensor w = random_binary_weight(6, 12, 13);
  MvmConfig cfg;
  cfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 8};
  cfg.sigma = 0.0;
  cfg.device.program_variation = 0.3;
  MvmEngine engine(w, cfg, Rng(14));
  const Tensor x = random_activations(2, 12, 15);
  EXPECT_TRUE(ops::allclose(engine.run_pulse_level(x), engine.run_analytic(x),
                            1e-4f, 1e-4f));
}

}  // namespace
}  // namespace gbo::xbar
