// Unit and behavioural tests of the GBO optimizer (paper §III-A).
#include "gbo/gbo.hpp"

#include "gbo/pla_schedule.hpp"
#include "models/mlp.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

namespace gbo::opt {
namespace {

GboConfig small_cfg() {
  GboConfig cfg;
  cfg.sigma = 1.0;
  cfg.gamma = 0.0;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  return cfg;
}

TEST(GboConfig, PulseLengthsMatchPaper) {
  GboConfig cfg;
  EXPECT_EQ(cfg.pulse_lengths(),
            (std::vector<std::size_t>{4, 6, 8, 10, 12, 14, 16}));
}

TEST(GboLayerState, AlphaIsValidDistribution) {
  GboLayerState st(small_cfg(), Rng(1));
  auto a = st.alpha();
  EXPECT_EQ(a.size(), 7u);
  double sum = 0.0;
  for (double v : a) {
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Uniform init -> uniform alpha.
  for (double v : a) EXPECT_NEAR(v, 1.0 / 7.0, 1e-12);
}

TEST(GboLayerState, AlphaTracksLambda) {
  GboLayerState st(small_cfg(), Rng(2));
  st.lambda().value[3] = 5.0f;
  const auto a = st.alpha();
  for (std::size_t k = 0; k < 7; ++k) {
    if (k != 3) {
      EXPECT_LT(a[k], a[3]);
    }
  }
  EXPECT_EQ(st.selected_scheme(), 3u);
  EXPECT_EQ(st.selected_pulses(), 10u);
}

TEST(GboLayerState, ForwardAddsMixtureNoise) {
  GboLayerState st(small_cfg(), Rng(3));
  Tensor out({50000});
  st.on_forward(out);
  EXPECT_NEAR(ops::mean(out), 0.0f, 0.02f);
  // Independent per-scheme draws: Var = Σ α_k² σ²/n_k with uniform α.
  double expected = 0.0;
  const auto pulses = small_cfg().pulse_lengths();
  for (std::size_t k = 0; k < pulses.size(); ++k)
    expected += (1.0 / 49.0) * 1.0 / static_cast<double>(pulses[k]);
  EXPECT_NEAR(ops::variance(out), expected, 0.1 * expected + 0.001);
}

TEST(NoiseMixture, MatchesPerSchemeDrawsAxpysAndDots) {
  // The per-scheme formulation the helper replaces: one fresh ε tensor per
  // scheme, a full axpy each, and one dot-product pass per scheme.
  const std::vector<double> stds = {0.5, 1.0 / 3.0, 0.2, 1e-3};
  const std::vector<float> coeffs = {0.1f, 0.4f, 0.3f, 0.2f};
  Rng init(3);
  Tensor out({3, 2777});  // > one 4096-element draw block, odd length
  ops::fill_uniform(out, init, -1.0f, 1.0f);
  Tensor grad(out.shape());
  ops::fill_uniform(grad, init, -1.0f, 1.0f);

  Rng rng_ref(9);
  (void)rng_ref.normal();  // a cached sine half carried into the draws
  Tensor want = out;
  std::vector<Tensor> eps;
  std::vector<double> want_c;
  for (std::size_t k = 0; k < stds.size(); ++k) {
    Tensor e(out.shape());
    ops::fill_normal(e, rng_ref, 0.0f, static_cast<float>(stds[k]));
    ops::axpy_inplace(want, coeffs[k], e);
    double acc = 0.0;
    for (std::size_t i = 0; i < e.numel(); ++i)
      acc += static_cast<double>(grad[i]) * e[i];
    want_c.push_back(acc);
  }

  Rng rng(9);
  (void)rng.normal();
  NoiseMixture mix(stds);
  EXPECT_THROW(mix.dots(grad), std::logic_error);
  Tensor got = out;
  for (int step = 0; step < 2; ++step) {  // the ε buffer is reused
    got = out;
    rng = Rng(9);
    (void)rng.normal();
    mix.draw(got, rng, coeffs.data());
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.numel() * sizeof(float)),
            0);
  EXPECT_EQ(mix.dots(grad), want_c);
  EXPECT_EQ(rng(), rng_ref());
  EXPECT_THROW(mix.dots(Tensor({5})), std::logic_error);
}

TEST(GboLayerState, BackwardRequiresForward) {
  GboLayerState st(small_cfg(), Rng(4));
  Tensor g({10});
  EXPECT_THROW(st.on_backward(g), std::logic_error);
}

TEST(GboLayerState, BackwardGradSumsToZero) {
  // Softmax jacobian rows sum to zero, so Σ_j ∂L/∂λ_j == 0 for the CE term.
  GboLayerState st(small_cfg(), Rng(5));
  Tensor out({256});
  st.on_forward(out);
  Tensor g({256});
  Rng rng(6);
  ops::fill_normal(g, rng, 0.0f, 1.0f);
  st.on_backward(g);
  float total = 0.0f;
  for (std::size_t k = 0; k < 7; ++k) total += st.lambda().grad[k];
  EXPECT_NEAR(total, 0.0f, 1e-4f);
}

TEST(GboLayerState, LatencyGradPushesTowardFewerPulses) {
  GboConfig cfg = small_cfg();
  cfg.gamma = 1.0;
  GboLayerState st(cfg, Rng(7));
  st.accumulate_latency_grad();
  // Gradient ascent direction: schemes with more pulses than the mean get
  // positive gradient (penalized); fewer pulses get negative (favored).
  const auto pulses = cfg.pulse_lengths();
  const double mean =
      std::accumulate(pulses.begin(), pulses.end(), 0.0) / pulses.size();
  for (std::size_t k = 0; k < pulses.size(); ++k) {
    if (static_cast<double>(pulses[k]) > mean + 1e-9) {
      EXPECT_GT(st.lambda().grad[k], 0.0f) << k;
    }
    if (static_cast<double>(pulses[k]) < mean - 1e-9) {
      EXPECT_LT(st.lambda().grad[k], 0.0f) << k;
    }
  }
}

TEST(GboLayerState, ExpectedPulsesUniformInit) {
  GboLayerState st(small_cfg(), Rng(8));
  const auto pulses = small_cfg().pulse_lengths();
  const double mean =
      std::accumulate(pulses.begin(), pulses.end(), 0.0) / pulses.size();
  EXPECT_NEAR(st.expected_pulses(), mean, 1e-9);
}

TEST(PulseSchedule, Formatting) {
  PulseSchedule sched{{10, 10, 8, 10, 10, 4, 6}};
  EXPECT_EQ(sched.to_string(), "[10, 10, 8, 10, 10, 4, 6]");
  EXPECT_NEAR(sched.average(), 58.0 / 7.0, 1e-9);
  EXPECT_EQ(sched.total(), 58u);
  EXPECT_EQ(sched.max_pulses(), 10u);
}

TEST(PulseSchedule, Uniform) {
  const auto sched = uniform_schedule(7, 8);
  EXPECT_EQ(sched.per_layer.size(), 7u);
  EXPECT_NEAR(sched.average(), 8.0, 1e-12);
}

// ---- end-to-end behaviour on a tiny model ---------------------------------

struct TinySetup {
  models::Mlp model;
  data::Dataset train;
};

TinySetup make_tiny() {
  models::MlpConfig mcfg;
  mcfg.in_features = 16;
  mcfg.hidden = {24, 24, 24};
  mcfg.num_classes = 4;
  models::Mlp model = build_mlp(mcfg);

  // Easy separable data: class k has feature k block high.
  Rng rng(9);
  const std::size_t n = 128;
  data::Dataset ds;
  ds.images = Tensor({n, 16});  // treated as flat features by the MLP
  ds.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i % 4;
    ds.labels[i] = k;
    for (std::size_t j = 0; j < 16; ++j)
      ds.images[i * 16 + j] = static_cast<float>(
          0.2 * rng.normal() + (j / 4 == k ? 0.9 : -0.9));
  }
  return {std::move(model), std::move(ds)};
}

void pretrain_tiny(TinySetup& setup, std::size_t epochs = 30) {
  nn::SGD opt(setup.model.net->params(), 0.05f, 0.9f, 0.0f);
  data::DataLoader loader(setup.train, 16, true, Rng(10));
  setup.model.net->set_training(true);
  for (std::size_t e = 0; e < epochs; ++e) {
    loader.reset();
    data::Batch batch;
    while (loader.next(batch)) {
      opt.zero_grad();
      // The MLP consumes [N, features] directly.
      Tensor logits = setup.model.net->forward(batch.images);
      Tensor grad;
      nn::CrossEntropy::forward_backward(logits, batch.labels, grad);
      setup.model.net->backward(grad);
      opt.step();
    }
  }
  setup.model.net->set_training(false);
}

TEST(GboTrainer, FreezesWeightsAndRestoresOnDestruction) {
  TinySetup setup = make_tiny();
  pretrain_tiny(setup, 5);
  const Tensor before = setup.model.net->params()[0]->value;
  {
    GboConfig cfg = small_cfg();
    cfg.epochs = 1;
    GboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
    trainer.train(setup.train);
    EXPECT_TRUE(
        ops::allclose(setup.model.net->params()[0]->value, before, 0.0f, 0.0f));
    for (nn::Param* p : setup.model.net->params())
      EXPECT_FALSE(p->requires_grad);
  }
  for (nn::Param* p : setup.model.net->params())
    EXPECT_TRUE(p->requires_grad);
  for (auto* layer : setup.model.encoded)
    EXPECT_EQ(layer->noise_hook(), nullptr);
}

TEST(GboTrainer, HighGammaSelectsShortSchedules) {
  TinySetup setup = make_tiny();
  pretrain_tiny(setup);
  GboConfig cfg;
  cfg.sigma = 0.1;    // negligible noise pressure
  cfg.gamma = 10.0;   // overwhelming latency pressure
  cfg.epochs = 8;
  cfg.lr = 0.05f;
  cfg.batch_size = 32;
  GboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
  trainer.train(setup.train);
  for (std::size_t p : trainer.selected_pulses()) EXPECT_EQ(p, 4u);
}

TEST(GboTrainer, HighNoiseSelectsLongSchedules) {
  TinySetup setup = make_tiny();
  pretrain_tiny(setup);
  GboConfig cfg;
  cfg.sigma = 12.0;  // strong noise pressure
  cfg.gamma = 0.0;   // no latency pressure
  cfg.epochs = 8;
  cfg.lr = 0.05f;
  cfg.batch_size = 32;
  GboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
  trainer.train(setup.train);
  // With zero latency cost the optimizer should push pulse counts up.
  EXPECT_GE(trainer.avg_selected_pulses(), 10.0);
}

TEST(GboTrainer, GammaTradesLatencyForAccuracy) {
  TinySetup setup = make_tiny();
  pretrain_tiny(setup);
  auto run = [&](double gamma) {
    GboConfig cfg;
    cfg.sigma = 6.0;
    cfg.gamma = gamma;
    cfg.epochs = 6;
    cfg.lr = 0.05f;
    cfg.batch_size = 32;
    GboTrainer trainer(*setup.model.net, setup.model.encoded, cfg);
    trainer.train(setup.train);
    return trainer.avg_selected_pulses();
  };
  const double cheap = run(5.0);
  const double rich = run(0.0);
  EXPECT_LE(cheap, rich);
}

}  // namespace
}  // namespace gbo::opt
