// Stateless inference contexts: infer()/forward equivalence across every
// layer type, the trial-parallel noisy evaluator vs the retained sequential
// oracle (bitwise, at 1 and 4 threads), the crossbar device-model path on
// both weight mappings, and the degenerate-input guards.
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "crossbar/crossbar_layers.hpp"
#include "data/synth_cifar.hpp"
#include "models/mlp.hpp"
#include "models/resnet.hpp"
#include "models/vgg9.hpp"
#include "nia/nia.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

namespace gbo {
namespace {

/// Restores the pool size on scope exit so tests can flip thread counts.
struct ThreadGuard {
  std::size_t saved = ThreadPool::instance().num_threads();
  ~ThreadGuard() { ThreadPool::instance().set_num_threads(saved); }
};

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  ops::fill_uniform(t, rng, -1.0f, 1.0f);
  return t;
}

data::Dataset random_dataset(std::size_t n, std::size_t features,
                             std::size_t classes, std::uint64_t seed) {
  data::Dataset ds;
  ds.images = random_tensor({n, features}, seed);
  ds.labels.resize(n);
  Rng rng(seed ^ 0x5555);
  for (auto& l : ds.labels)
    l = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
  return ds;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << "i=" << i;
}

// ---- infer() == eval-mode forward(), layer by layer via the models -------

TEST(EvalContext, InferMatchesEvalForwardMlp) {
  models::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = {24, 24};
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);
  const Tensor x = random_tensor({5, 16}, 1);
  nn::EvalContext ctx(Rng(2));
  expect_bitwise_equal(m.net->forward(x), m.net->infer(x, ctx));
}

TEST(EvalContext, InferMatchesEvalForwardVgg9) {
  models::Vgg9Config cfg;
  cfg.width = 4;
  cfg.image_size = 8;
  models::Vgg9 m = models::build_vgg9(cfg);
  m.net->set_training(false);
  const Tensor x = random_tensor({3, 3, 8, 8}, 3);
  nn::EvalContext ctx(Rng(4));
  expect_bitwise_equal(m.net->forward(x), m.net->infer(x, ctx));
}

TEST(EvalContext, InferMatchesEvalForwardResNet) {
  models::ResNetConfig cfg;
  cfg.width = 4;
  cfg.image_size = 8;
  models::ResNet m = models::build_resnet(cfg);
  m.net->set_training(false);
  const Tensor x = random_tensor({3, 3, 8, 8}, 5);
  nn::EvalContext ctx(Rng(6));
  expect_bitwise_equal(m.net->forward(x), m.net->infer(x, ctx));
}

TEST(EvalContext, InferLeavesForwardStateUntouched) {
  // A forward, then an infer with a different input, then backward: the
  // backward must consume the *forward*'s tape, not anything infer did.
  models::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = {24};
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(true);

  const Tensor x = random_tensor({4, 16}, 7);
  Tensor y1 = m.net->forward(x);

  models::Mlp twin = models::build_mlp(cfg);  // identical weights (same seed)
  twin.net->set_training(true);
  Tensor y2 = twin.net->forward(x);
  expect_bitwise_equal(y1, y2);

  // Run a few infer passes on m only, then backprop the same grad into both.
  nn::EvalContext ctx(Rng(8));
  for (int i = 0; i < 3; ++i)
    (void)m.net->infer(random_tensor({6, 16}, 9 + i), ctx);

  const Tensor grad = random_tensor(y1.shape(), 20);
  Tensor gx1 = m.net->backward(grad);
  Tensor gx2 = twin.net->backward(grad);
  expect_bitwise_equal(gx1, gx2);
}

TEST(EvalContext, TrainingOnlyHookRejectsStatelessInference) {
  struct TrainingOnlyHook : quant::MvmNoiseHook {
    void on_forward(Tensor&) override {}
  } hook;
  Tensor out({2, 2});
  Rng rng(1);
  EXPECT_NO_THROW(hook.infer_input(out, rng));  // default: pass-through
  EXPECT_THROW(hook.infer_output(out, rng), std::logic_error);
}

// ---- trial-parallel vs sequential oracle ---------------------------------

/// Mean noisy accuracy of the MLP under hooks, via the given evaluator.
template <typename Eval>
float mlp_noisy_accuracy(Eval&& eval, double sigma, std::size_t trials) {
  models::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = {24, 24};
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);
  data::Dataset test = random_dataset(60, 16, 4, 11);

  Rng rng(77);
  xbar::LayerNoiseController ctrl(m.encoded, sigma, m.base_pulses(), rng);
  ctrl.attach();
  ctrl.set_enabled_all(true);
  const float acc = eval(*m.net, ctrl, test, trials);
  ctrl.detach();
  return acc;
}

TEST(EvalContext, ParallelMatchesSequentialOracleAtAnyThreadCount) {
  ThreadGuard guard;
  const double sigma = 2.0;
  const std::size_t trials = 5;

  auto sequential = [](const nn::Sequential& net,
                       xbar::LayerNoiseController& ctrl,
                       const data::Dataset& test, std::size_t t) {
    return core::evaluate_noisy_sequential(net, ctrl, test, t, 16);
  };
  auto parallel = [](const nn::Sequential& net,
                     xbar::LayerNoiseController& ctrl,
                     const data::Dataset& test, std::size_t t) {
    return core::evaluate_noisy(net, ctrl, test, t, 16);
  };

  ThreadPool::instance().set_num_threads(1);
  const float oracle = mlp_noisy_accuracy(sequential, sigma, trials);
  const float par_1t = mlp_noisy_accuracy(parallel, sigma, trials);
  ThreadPool::instance().set_num_threads(4);
  const float par_4t = mlp_noisy_accuracy(parallel, sigma, trials);
  const float oracle_4t = mlp_noisy_accuracy(sequential, sigma, trials);

  EXPECT_EQ(oracle, par_1t);
  EXPECT_EQ(oracle, par_4t);
  EXPECT_EQ(oracle, oracle_4t);
}

TEST(EvalContext, TrialWindowsAdvanceButReplayFromSameSeed) {
  models::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = {24};
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);
  data::Dataset test = random_dataset(60, 16, 4, 13);

  auto run_twice = [&](std::uint64_t seed) {
    Rng rng(seed);
    xbar::LayerNoiseController ctrl(m.encoded, 3.0, m.base_pulses(), rng);
    ctrl.attach();
    ctrl.set_enabled_all(true);
    const float a = core::evaluate_noisy(*m.net, ctrl, test, 3, 16);
    const float b = core::evaluate_noisy(*m.net, ctrl, test, 3, 16);
    // The second call consumed the next trial-id window...
    EXPECT_EQ(ctrl.allocate_trials(1), 6u);
    ctrl.detach();
    return std::make_pair(a, b);
  };

  const auto [a1, b1] = run_twice(55);
  const auto [a2, b2] = run_twice(55);
  EXPECT_EQ(a1, a2);  // ... and the whole series replays from the seed
  EXPECT_EQ(b1, b2);

  // Distinct trial ids fork distinct noise streams.
  Rng rng(55);
  xbar::LayerNoiseController ctrl(m.encoded, 3.0, m.base_pulses(), rng);
  EXPECT_NE(ctrl.trial_rng(0)(), ctrl.trial_rng(1)());
  EXPECT_EQ(ctrl.trial_rng(2)(), ctrl.trial_rng(2)());
}

// ---- crossbar device model (read noise + ADC), both weight mappings ------

TEST(EvalContext, CrossbarDeviceModelBitwiseAcrossThreads) {
  ThreadGuard guard;
  for (const xbar::WeightMapping mapping :
       {xbar::WeightMapping::kDifferential, xbar::WeightMapping::kOffset}) {
    // CrossbarLinear runs the full pulse-level engine with read noise and
    // ADC; a hooked QuantLinear rides behind it so both noise paths (device
    // model + analytic hook) draw from the same per-trial context stream.
    Rng wrng(21);
    Tensor bw({16, 16});
    for (std::size_t i = 0; i < bw.numel(); ++i)
      bw[i] = wrng.bernoulli(0.5) ? 0.5f : -0.5f;

    xbar::MvmConfig mcfg;
    mcfg.spec = enc::EncodingSpec{enc::Scheme::kThermometer, 8};
    mcfg.sigma = 0.1;
    mcfg.device.mapping = mapping;
    mcfg.device.read_noise_sigma = 0.05;
    mcfg.device.adc_bits = 6;
    mcfg.device.program_variation = 0.05;

    auto build_net = [&] {
      auto net = std::make_unique<nn::Sequential>();
      net->emplace<xbar::CrossbarLinear>(bw, mcfg, Rng(22));
      net->emplace<nn::Tanh>();
      Rng lrng(23);
      net->emplace<quant::QuantLinear>(16, 4, lrng);
      net->set_training(false);
      return net;
    };
    auto net = build_net();
    std::vector<quant::Hookable*> hooked{
        dynamic_cast<quant::Hookable*>(&net->at(2))};
    ASSERT_NE(hooked[0], nullptr);

    data::Dataset test = random_dataset(32, 16, 4, 31);

    auto noisy = [&](std::size_t threads, bool sequential) {
      ThreadPool::instance().set_num_threads(threads);
      Rng crng(41);
      xbar::LayerNoiseController ctrl(hooked, 0.5, 8, crng);
      ctrl.attach();
      ctrl.set_enabled_all(true);
      const float acc =
          sequential
              ? core::evaluate_noisy_sequential(*net, ctrl, test, 4, 8)
              : core::evaluate_noisy(*net, ctrl, test, 4, 8);
      ctrl.detach();
      return acc;
    };

    const float oracle = noisy(1, /*sequential=*/true);
    EXPECT_EQ(oracle, noisy(1, false)) << "mapping=" << static_cast<int>(mapping);
    EXPECT_EQ(oracle, noisy(4, false)) << "mapping=" << static_cast<int>(mapping);
  }
}

// ---- mixed per-layer specs ------------------------------------------------

TEST(EvalContext, EvaluateSelectionBitwiseAcrossThreads) {
  ThreadGuard guard;
  models::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = {24, 24, 24};
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);
  data::Dataset test = random_dataset(60, 16, 4, 17);

  // Mixed per-layer selection: thermometer and bit-sliced codes.
  std::vector<enc::EncodingSpec> specs(m.encoded.size());
  for (std::size_t l = 0; l < specs.size(); ++l) {
    specs[l].scheme =
        l % 2 == 0 ? enc::Scheme::kThermometer : enc::Scheme::kBitSlicing;
    specs[l].num_pulses = l % 2 == 0 ? 8 : 3;
  }

  auto run = [&](std::size_t threads) {
    ThreadPool::instance().set_num_threads(threads);
    Rng rng(71);
    xbar::LayerNoiseController ctrl(m.encoded, 1.5, m.base_pulses(), rng);
    ctrl.attach();
    ctrl.set_enabled_all(true);
    ctrl.set_specs(specs);
    const float acc = core::evaluate_noisy(*m.net, ctrl, test, 4, 16);
    ctrl.detach();
    return acc;
  };

  const float a1 = run(1);
  const float a4 = run(4);
  EXPECT_EQ(a1, a4);
}

// ---- degenerate inputs (regression: used to divide by zero) --------------

TEST(EvalContext, DegenerateInputsReturnZero) {
  models::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = {24};
  cfg.num_classes = 4;
  models::Mlp m = models::build_mlp(cfg);
  m.net->set_training(false);

  Rng rng(81);
  xbar::LayerNoiseController ctrl(m.encoded, 1.0, m.base_pulses(), rng);
  ctrl.attach();

  data::Dataset test = random_dataset(20, 16, 4, 19);
  data::Dataset empty;
  empty.images = Tensor({0, 16});

  EXPECT_EQ(core::evaluate_noisy(*m.net, ctrl, test, 0), 0.0f);
  EXPECT_EQ(core::evaluate_noisy(*m.net, ctrl, empty, 3), 0.0f);
  EXPECT_EQ(core::evaluate_noisy_sequential(*m.net, ctrl, test, 0), 0.0f);
  EXPECT_EQ(core::evaluate(*m.net, empty), 0.0f);

  const auto sigmas =
      core::calibrate_sigmas(*m.net, ctrl, empty, {0.5, 0.3}, 4.0, 3, 2);
  ASSERT_EQ(sigmas.size(), 2u);
  EXPECT_EQ(sigmas[0], 0.0);
  EXPECT_EQ(sigmas[1], 0.0);

  const auto no_trials =
      core::calibrate_sigmas(*m.net, ctrl, test, {0.5}, 4.0, 3, 0);
  ASSERT_EQ(no_trials.size(), 1u);
  EXPECT_EQ(no_trials[0], 0.0);
  ctrl.detach();
}

// ---- NIA validation loop --------------------------------------------------

TEST(EvalContext, NiaValidationLoopRecordsNoisyAccuracy) {
  ThreadGuard guard;
  models::MlpConfig cfg;
  cfg.in_features = 16;
  cfg.hidden = {24};
  cfg.num_classes = 4;
  data::Dataset train = random_dataset(80, 16, 4, 23);
  data::Dataset val = random_dataset(40, 16, 4, 29);

  nia::NiaConfig ncfg;
  ncfg.sigma = 1.0;
  ncfg.epochs = 2;
  ncfg.batch_size = 16;
  ncfg.val_trials = 3;

  auto run = [&](std::size_t threads) {
    ThreadPool::instance().set_num_threads(threads);
    models::Mlp m = models::build_mlp(cfg);
    return nia::nia_finetune(*m.net, m.encoded, m.binary, train, val, ncfg);
  };

  const auto stats_1t = run(1);
  const auto stats_4t = run(4);
  ASSERT_EQ(stats_1t.size(), 2u);
  for (const auto& st : stats_1t) {
    EXPECT_GE(st.noisy_val_accuracy, 0.0f);
    EXPECT_LE(st.noisy_val_accuracy, 1.0f);
  }
  // The per-epoch validation curve is bitwise thread-count invariant.
  for (std::size_t e = 0; e < stats_1t.size(); ++e)
    EXPECT_EQ(stats_1t[e].noisy_val_accuracy, stats_4t[e].noisy_val_accuracy);

  // The non-validating overload leaves the field at its sentinel.
  models::Mlp m = models::build_mlp(cfg);
  const auto plain = nia::nia_finetune(*m.net, m.encoded, m.binary, train, ncfg);
  for (const auto& st : plain) EXPECT_EQ(st.noisy_val_accuracy, -1.0f);
}

}  // namespace
}  // namespace gbo
