#include "quant/quant_layers.hpp"

#include "crossbar/crossbar_layers.hpp"
#include "quant/act_quant.hpp"
#include "quant/binary_weight.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace gbo::quant {
namespace {

/// Records hook invocations for contract testing.
class SpyHook : public MvmNoiseHook {
 public:
  void on_input(Tensor& x) override {
    ++input_calls;
    last_input_numel = x.numel();
  }
  void on_forward(Tensor& out) override {
    ++forward_calls;
    if (add_offset != 0.0f)
      for (std::size_t i = 0; i < out.numel(); ++i) out[i] += add_offset;
  }
  void on_backward(const Tensor& grad) override {
    ++backward_calls;
    last_grad_numel = grad.numel();
  }

  int input_calls = 0, forward_calls = 0, backward_calls = 0;
  std::size_t last_input_numel = 0, last_grad_numel = 0;
  float add_offset = 0.0f;
};

TEST(QuantLinear, ForwardUsesBinarizedWeight) {
  Rng rng(1);
  QuantLinear fc(4, 3, rng, /*scaled=*/true);
  Tensor x({2, 4});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  Tensor y = fc.forward(x);
  // Scale-epilogue semantics (DESIGN.md §8): the MVM runs over the ±1 sign
  // matrix and the digital scale multiplies the output afterwards.
  Tensor expected = ops::matmul_bt(x, binarize(fc.weight().value, false));
  const float s = fc.weight_scale();
  for (std::size_t i = 0; i < expected.numel(); ++i) expected[i] *= s;
  EXPECT_TRUE(ops::allclose(y, expected, 1e-5f, 1e-6f));
  // Equivalent (up to rounding) to the folded ±scale product.
  Tensor folded = ops::matmul_bt(x, binarize(fc.weight().value, true));
  EXPECT_TRUE(ops::allclose(y, folded, 1e-5f, 1e-6f));
  // The stored binary weight is the ±1 sign matrix a crossbar cell holds;
  // the scale is reported separately.
  EXPECT_GT(s, 0.0f);
  for (std::size_t i = 0; i < fc.binary_weight().numel(); ++i)
    EXPECT_NEAR(std::fabs(fc.binary_weight()[i]), 1.0f, 1e-6f);
}

TEST(QuantLinear, InferRoutesOnGridInputThroughBinaryKernel) {
  Rng rng(21);
  QuantLinear fc(9, 5, rng, /*scaled=*/true);
  // Every value on the 9-level QuantTanh grid (multiples of 1/4 in [-1, 1]).
  Tensor x({3, 9});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(static_cast<int>(i * 5 % 9) - 4) * 0.25f;
  Tensor ref = fc.forward(x);
  gbo::nn::EvalContext ctx;
  const std::uint64_t mvms_before = gemm::binary_mvm_count();
  Tensor y = fc.infer(x, ctx);
  EXPECT_EQ(gemm::binary_mvm_count(), mvms_before + 1);
  // The level-code route must be bitwise equal to the float forward.
  ASSERT_EQ(y.shape(), ref.shape());
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], ref[i]);
}

TEST(QuantLinear, InferFallsBackToFloatForOffGridInput) {
  Rng rng(22);
  QuantLinear fc(4, 3, rng, /*scaled=*/true);
  Tensor x({2, 4});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);  // almost surely off-grid
  Tensor ref = fc.forward(x);
  gbo::nn::EvalContext ctx;
  const std::uint64_t mvms_before = gemm::binary_mvm_count();
  Tensor y = fc.infer(x, ctx);
  EXPECT_EQ(gemm::binary_mvm_count(), mvms_before);  // float route taken
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], ref[i]);
}

TEST(QuantConv2d, InferRoutesOnGridInputThroughBinaryKernel) {
  // The conv route gathers patches over level codes of the input and
  // stores NCHW directly; it must stay bitwise equal to forward for every
  // stride/padding, for patch lengths that are not a multiple of 4 or 64
  // (18, 63, 81), for whole and ragged 16-channel panels, for pixel counts
  // that do and do not split into 8-row tiles, with and without a scratch
  // arena.
  struct Case {
    ConvGeom g;
    std::size_t out_c;
  };
  const Case cases[] = {
      {{.in_c = 2, .in_h = 5, .in_w = 5, .k = 3, .stride = 1, .pad = 1}, 4},
      {{.in_c = 7, .in_h = 7, .in_w = 6, .k = 3, .stride = 2, .pad = 0}, 4},
      {{.in_c = 9, .in_h = 6, .in_w = 7, .k = 3, .stride = 2, .pad = 1}, 4},
      {{.in_c = 16, .in_h = 8, .in_w = 8, .k = 3, .stride = 1, .pad = 1}, 32},
      {{.in_c = 3, .in_h = 5, .in_w = 5, .k = 3, .stride = 1, .pad = 1}, 17},
  };
  for (const Case& cs : cases) {
    const ConvGeom& g = cs.g;
    SCOPED_TRACE(::testing::Message() << "in_c=" << g.in_c << " stride="
                                      << g.stride << " pad=" << g.pad
                                      << " out_c=" << cs.out_c);
    Rng rng(23);
    QuantConv2d conv(cs.out_c, g, rng, /*scaled=*/true);
    Tensor x({2, g.in_c, g.in_h, g.in_w});
    for (std::size_t i = 0; i < x.numel(); ++i)
      x[i] = static_cast<float>(static_cast<int>(i * 3 % 9) - 4) * 0.25f;
    Tensor ref = conv.forward(x);
    ScratchArena arena;
    for (ScratchArena* a : {static_cast<ScratchArena*>(nullptr), &arena}) {
      gbo::nn::EvalContext ctx(Rng(1), a);
      const std::uint64_t mvms_before = gemm::binary_mvm_count();
      Tensor y = conv.infer(x, ctx);
      EXPECT_EQ(gemm::binary_mvm_count(), mvms_before + 1);
      ASSERT_EQ(y.shape(), ref.shape());
      for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], ref[i]);
    }

    // One off-grid value, last in the validating pass, sends the whole
    // call to the float route.
    Tensor x_off = x;
    x_off[x_off.numel() - 1] = 0.3f;
    Tensor ref_off = conv.forward(x_off);
    for (ScratchArena* a : {static_cast<ScratchArena*>(nullptr), &arena}) {
      gbo::nn::EvalContext ctx(Rng(1), a);
      const std::uint64_t mvms_before = gemm::binary_mvm_count();
      Tensor y = conv.infer(x_off, ctx);
      EXPECT_EQ(gemm::binary_mvm_count(), mvms_before);
      ASSERT_EQ(y.shape(), ref_off.shape());
      for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], ref_off[i]);
    }
  }
}

TEST(QuantLinear, NoBiasParameter) {
  Rng rng(2);
  QuantLinear fc(4, 3, rng);
  EXPECT_EQ(fc.params().size(), 1u);  // crossbar layers are bias-free
}

TEST(QuantLinear, BackwardAppliesSte) {
  Rng rng(3);
  QuantLinear fc(2, 1, rng, /*scaled=*/false);
  // Saturate one latent weight beyond the STE window.
  fc.weight().value = Tensor({1, 2}, std::vector<float>{2.0f, 0.5f});
  Tensor x({1, 2}, std::vector<float>{1.0f, 1.0f});
  fc.forward(x);
  Tensor g({1, 1}, std::vector<float>{1.0f});
  fc.backward(g);
  EXPECT_FLOAT_EQ(fc.weight().grad[0], 0.0f);  // clipped (|w| > 1)
  EXPECT_FLOAT_EQ(fc.weight().grad[1], 1.0f);  // passes through
}

TEST(QuantLinear, HookLifecycle) {
  Rng rng(4);
  QuantLinear fc(4, 3, rng);
  SpyHook hook;
  fc.set_noise_hook(&hook);
  Tensor x({2, 4});
  Tensor y = fc.forward(x);
  Tensor g(y.shape());
  fc.backward(g);
  EXPECT_EQ(hook.input_calls, 1);
  EXPECT_EQ(hook.forward_calls, 1);
  EXPECT_EQ(hook.backward_calls, 1);
  EXPECT_EQ(hook.last_input_numel, x.numel());
  EXPECT_EQ(hook.last_grad_numel, y.numel());

  fc.set_noise_hook(nullptr);
  fc.forward(x);
  EXPECT_EQ(hook.input_calls, 1);  // detached hooks are not called
}

TEST(QuantLinear, HookOffsetIsAdditive) {
  Rng rng(5);
  QuantLinear fc(4, 3, rng);
  Tensor x({1, 4}, 0.5f);
  Tensor clean = fc.forward(x);
  SpyHook hook;
  hook.add_offset = 2.5f;
  fc.set_noise_hook(&hook);
  Tensor noisy = fc.forward(x);
  for (std::size_t i = 0; i < clean.numel(); ++i)
    EXPECT_NEAR(noisy[i] - clean[i], 2.5f, 1e-5f);
}

TEST(QuantConv2d, ForwardUsesBinarizedWeight) {
  Rng rng(6);
  ConvGeom g{.in_c = 2, .in_h = 4, .in_w = 4, .k = 3, .stride = 1, .pad = 1};
  QuantConv2d conv(3, g, rng);
  Tensor x({1, 2, 4, 4});
  ops::fill_uniform(x, rng, -1.0f, 1.0f);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 3, 4, 4}));
  // ±1 signs stored, digital scale separate (see the Linear test).
  const float s = conv.weight_scale();
  EXPECT_GT(s, 0.0f);
  for (std::size_t i = 0; i < conv.binary_weight().numel(); ++i)
    EXPECT_NEAR(std::fabs(conv.binary_weight()[i]), 1.0f, 1e-6f);
}

TEST(QuantConv2d, HookSeesMvmOutput) {
  Rng rng(7);
  ConvGeom g{.in_c = 1, .in_h = 4, .in_w = 4, .k = 3, .stride = 1, .pad = 1};
  QuantConv2d conv(2, g, rng);
  SpyHook hook;
  conv.set_noise_hook(&hook);
  Tensor x({3, 1, 4, 4});
  Tensor y = conv.forward(x);
  EXPECT_EQ(hook.forward_calls, 1);
  Tensor grad(y.shape());
  conv.backward(grad);
  EXPECT_EQ(hook.last_grad_numel, y.numel());
}

TEST(QuantConv2d, CrossbarDims) {
  Rng rng(8);
  ConvGeom g{.in_c = 3, .in_h = 8, .in_w = 8, .k = 3, .stride = 1, .pad = 1};
  QuantConv2d conv(16, g, rng);
  Hookable& h = conv;
  EXPECT_EQ(h.crossbar_rows(), 16u);
  EXPECT_EQ(h.crossbar_cols(), 27u);
  EXPECT_EQ(&h.latent_weight(), &conv.weight());
}

TEST(GaussianNoiseHook, AddsCorrectVariance) {
  Rng rng(9);
  xbar::GaussianNoiseHook hook(rng, /*sigma=*/2.0,
                               enc::EncodingSpec{enc::Scheme::kThermometer, 8},
                               /*base_pulses=*/8);
  Tensor out({20000});
  hook.on_forward(out);
  // Var should be σ²/p = 4/8 = 0.5.
  EXPECT_NEAR(ops::mean(out), 0.0f, 0.03f);
  EXPECT_NEAR(ops::variance(out), 0.5f, 0.03f);
}

TEST(GaussianNoiseHook, DisabledIsNoop) {
  Rng rng(10);
  xbar::GaussianNoiseHook hook(rng, 5.0,
                               enc::EncodingSpec{enc::Scheme::kThermometer, 8}, 8);
  hook.set_enabled(false);
  Tensor out({100}, 1.0f);
  hook.on_forward(out);
  for (std::size_t i = 0; i < out.numel(); ++i) EXPECT_FLOAT_EQ(out[i], 1.0f);
  Tensor x({10}, 0.37f);
  hook.on_input(x);
  EXPECT_FLOAT_EQ(x[0], 0.37f);
}

TEST(GaussianNoiseHook, PlaReencodesInputAtNonBasePulses) {
  Rng rng(11);
  xbar::GaussianNoiseHook hook(rng, 0.0,
                               enc::EncodingSpec{enc::Scheme::kThermometer, 10}, 8);
  // 0.25 is a 9-level value; at 10 pulses the nearest level is 0.2.
  Tensor x({1}, std::vector<float>{0.25f});
  hook.on_input(x);
  EXPECT_NEAR(x[0], 0.2f, 1e-6f);
}

TEST(GaussianNoiseHook, BasePulsesLeaveInputUntouched) {
  Rng rng(12);
  xbar::GaussianNoiseHook hook(rng, 0.0,
                               enc::EncodingSpec{enc::Scheme::kThermometer, 8}, 8);
  Tensor x({1}, std::vector<float>{0.25f});
  hook.on_input(x);
  EXPECT_FLOAT_EQ(x[0], 0.25f);
}

TEST(LayerNoiseController, ManagesPerLayerSpecs) {
  Rng rng(13);
  QuantLinear a(4, 4, rng), b(4, 4, rng), c(4, 4, rng);
  xbar::LayerNoiseController ctrl({&a, &b, &c}, 1.0, 8, rng);
  ctrl.attach();
  EXPECT_NE(a.noise_hook(), nullptr);
  ctrl.set_pulses({4, 8, 16});
  EXPECT_EQ(ctrl.pulses(), (std::vector<std::size_t>{4, 8, 16}));
  EXPECT_NEAR(ctrl.avg_pulses(), 28.0 / 3.0, 1e-9);
  ctrl.set_uniform_pulses(10);
  EXPECT_NEAR(ctrl.avg_pulses(), 10.0, 1e-9);
  EXPECT_THROW(ctrl.set_pulses({1, 2}), std::invalid_argument);
  ctrl.detach();
  EXPECT_EQ(a.noise_hook(), nullptr);
}

TEST(LayerNoiseController, IsolateLayerEnablesExactlyOne) {
  Rng rng(14);
  QuantLinear a(4, 4, rng), b(4, 4, rng);
  xbar::LayerNoiseController ctrl({&a, &b}, 1.0, 8, rng);
  ctrl.isolate_layer(1);
  EXPECT_FALSE(ctrl.hook(0).enabled());
  EXPECT_TRUE(ctrl.hook(1).enabled());
  EXPECT_THROW(ctrl.isolate_layer(5), std::out_of_range);
}

// ---- QuantTanh: threshold lookup vs quantize_value(std::tanh(x)) ----------

float from_bits(std::uint32_t b) {
  float x = 0.0f;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

std::uint32_t to_bits(float x) {
  std::uint32_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// The float d ulps above x in value order (d < 0: below), skipping -0.
float ulps_away(float x, std::int64_t d) {
  const std::uint32_t b = to_bits(x);
  const std::int64_t mag = b & 0x7FFFFFFFu;
  const std::int64_t o = ((b >> 31) ? -mag : mag) + d;
  return o < 0 ? from_bits(0x80000000u | static_cast<std::uint32_t>(-o))
               : from_bits(static_cast<std::uint32_t>(o));
}

/// Runs infer (and, with `forward`, forward) over xs and counts outputs that
/// differ bitwise from the libm expression (NaN counts as equal to NaN).
std::size_t tanh_mismatches(QuantTanh& act, const Tensor& x,
                            bool forward = true) {
  gbo::nn::EvalContext ctx;
  std::vector<Tensor> outs{act.infer(x, ctx)};
  if (forward) outs.push_back(act.forward(x));
  std::size_t bad = 0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float ref = quantize_value(std::tanh(x[i]), act.levels());
    for (const Tensor& y : outs) {
      const bool same = std::isnan(ref) ? std::isnan(y[i])
                                        : to_bits(y[i]) == to_bits(ref);
      if (!same) ++bad;
    }
  }
  return bad;
}

/// Every float within ±ulps of each step threshold of act.
Tensor threshold_windows(const QuantTanh& act, std::int64_t ulps) {
  std::vector<float> xs;
  xs.reserve(act.thresholds().size() * static_cast<std::size_t>(2 * ulps + 1));
  for (float t : act.thresholds())
    for (std::int64_t d = -ulps; d <= ulps; ++d) xs.push_back(ulps_away(t, d));
  const std::size_t n = xs.size();
  return Tensor({n}, std::move(xs));
}

TEST(QuantTanh, ThresholdsAreTheLibmStepsBitwise) {
  // infer over every float within ±2^18 ulps of each step threshold, at
  // every level count; the ulp walk crosses ±0 and runs into the
  // subnormals. forward shares infer's threshold lookup (quantize_tanh) and
  // also fills the STE tanh cache, so it is checked on ±2^12 ulps.
  for (std::size_t levels : {2u, 3u, 5u, 9u, 17u}) {
    QuantTanh act(levels);
    ASSERT_EQ(act.thresholds().size(), levels - 1);
    EXPECT_EQ(tanh_mismatches(act, threshold_windows(act, 1 << 18), false), 0u)
        << "levels " << levels;
    EXPECT_EQ(tanh_mismatches(act, threshold_windows(act, 1 << 12)), 0u)
        << "levels " << levels;
    // A threshold is a step: the level changes between its predecessor and
    // it.
    for (float t : act.thresholds()) {
      const float below =
          std::nextafter(t, -std::numeric_limits<float>::infinity());
      EXPECT_LT(quantize_value(std::tanh(below), levels),
                quantize_value(std::tanh(t), levels));
    }
  }
}

TEST(QuantTanh, SpecialValuesAndRandomBitPatterns) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> xs = {0.0f, -0.0f, inf, -inf,
                           std::numeric_limits<float>::quiet_NaN(),
                           -std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::signaling_NaN(),
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::denorm_min(),
                           from_bits(0x007FFFFFu), from_bits(0x807FFFFFu),
                           std::numeric_limits<float>::min(),
                           std::numeric_limits<float>::max(),
                           -std::numeric_limits<float>::max()};
  Rng rng(2026);
  for (int i = 0; i < (1 << 20); ++i)
    xs.push_back(from_bits(static_cast<std::uint32_t>(rng())));
  const Tensor x({xs.size()}, xs);
  for (std::size_t levels : {2u, 3u, 5u, 9u, 17u}) {
    QuantTanh act(levels);
    EXPECT_EQ(tanh_mismatches(act, x), 0u) << "levels " << levels;
  }
}

TEST(QuantTanh, NaNStaysNaN) {
  QuantTanh act(9);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor x({3}, std::vector<float>{-0.3f, nan, 2.0f});
  gbo::nn::EvalContext ctx;
  const Tensor y = act.infer(x, ctx);
  EXPECT_FLOAT_EQ(y[0], -0.25f);
  EXPECT_TRUE(std::isnan(y[1]));
  EXPECT_FLOAT_EQ(y[2], 1.0f);
  EXPECT_THROW(QuantTanh(1), std::invalid_argument);
}

}  // namespace
}  // namespace gbo::quant
