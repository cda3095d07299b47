#include "gbo/gumbel.hpp"

#include "common/logging.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

#include <cmath>
#include <stdexcept>

namespace gbo::opt {

namespace {

/// Gumbel(0, 1) sample: -log(-log U), U ~ Uniform(0, 1).
double sample_gumbel(Rng& rng) {
  // Guard the log against U == 0 (uniform() is in [0, 1)).
  double u = rng.uniform();
  if (u < 1e-300) u = 1e-300;
  return -std::log(-std::log(u));
}

}  // namespace

GumbelLayerState::GumbelLayerState(const GumbelConfig& cfg, Rng rng)
    : cfg_(cfg), pulses_(cfg.base.pulse_lengths()), rng_(rng),
      tau_(cfg.tau_start), noise_(scheme_stds(cfg.base.sigma, pulses_)) {
  if (pulses_.empty())
    throw std::invalid_argument("GumbelGbo: empty scale set");
  if (cfg_.tau_start <= 0.0 || cfg_.tau_end <= 0.0)
    throw std::invalid_argument("GumbelGbo: temperatures must be positive");
  lambda_ = nn::Param("lambda", Tensor({pulses_.size()}));
}

void GumbelLayerState::set_temperature(double tau) {
  if (tau <= 0.0)
    throw std::invalid_argument("GumbelGbo: temperature must be positive");
  tau_ = tau;
}

std::vector<double> GumbelLayerState::alpha() const { return softmax(lambda_); }

void GumbelLayerState::on_forward(Tensor& out) {
  const std::size_t m = pulses_.size();
  // Relaxed one-hot sample y = softmax((λ + g)/τ).
  std::vector<double> logits(m);
  for (std::size_t k = 0; k < m; ++k)
    logits[k] =
        (static_cast<double>(lambda_.value[k]) + sample_gumbel(rng_)) / tau_;
  double mx = logits[0];
  for (std::size_t k = 1; k < m; ++k) mx = std::max(mx, logits[k]);
  cached_y_.assign(m, 0.0);
  double denom = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    cached_y_[k] = std::exp(logits[k] - mx);
    denom += cached_y_[k];
  }
  for (double& v : cached_y_) v /= denom;

  // Per-scheme noise samples (needed for the backward pass either way).
  if (cfg_.hard) {
    // Straight-through: the forward pass adds exactly one scheme's noise
    // (what inference does); gradients pretend the soft mixture was used.
    noise_.draw(out, rng_, nullptr);
    std::size_t j = 0;
    for (std::size_t k = 1; k < m; ++k)
      if (cached_y_[k] > cached_y_[j]) j = k;
    noise_.add(out, j, 1.0f);
  } else {
    const std::vector<float> coeffs(cached_y_.begin(), cached_y_.end());
    noise_.draw(out, rng_, coeffs.data());
  }
}

void GumbelLayerState::on_backward(const Tensor& grad_out) {
  if (cached_y_.size() != pulses_.size())
    throw std::logic_error("GumbelLayerState: backward without forward");

  // Through the relaxation, out = Σ y_k ε_k with y = softmax(z/τ),
  // z = λ + g. With c_k = <grad_out, ε_k>:
  //   ∂L/∂λ_j = (1/τ) · y_j (c_j - Σ_k y_k c_k).
  accumulate_lambda_grad(lambda_, cached_y_, noise_.dots(grad_out), tau_);
}

void GumbelLayerState::accumulate_latency_grad() {
  const std::size_t m = pulses_.size();
  if (cached_y_.size() != m) return;  // no forward yet this step
  double expected = 0.0;
  for (std::size_t k = 0; k < m; ++k)
    expected += cached_y_[k] * static_cast<double>(pulses_[k]);
  for (std::size_t j = 0; j < m; ++j)
    lambda_.grad[j] += static_cast<float>(
        cfg_.base.gamma * cached_y_[j] *
        (static_cast<double>(pulses_[j]) - expected) / tau_);
}

double GumbelLayerState::expected_pulses() const {
  const auto a = alpha();
  double expected = 0.0;
  for (std::size_t k = 0; k < pulses_.size(); ++k)
    expected += a[k] * static_cast<double>(pulses_[k]);
  return expected;
}

std::size_t GumbelLayerState::selected_scheme() const {
  std::size_t best = 0;
  for (std::size_t k = 1; k < pulses_.size(); ++k)
    if (lambda_.value[k] > lambda_.value[best]) best = k;
  return best;
}

std::size_t GumbelLayerState::selected_pulses() const {
  return pulses_[selected_scheme()];
}

GumbelGboTrainer::GumbelGboTrainer(nn::Sequential& net,
                                   std::vector<quant::Hookable*> encoded_layers,
                                   GumbelConfig cfg)
    : net_(net), layers_(std::move(encoded_layers)), cfg_(cfg) {
  Rng rng(cfg_.base.seed);
  states_.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    states_.push_back(
        std::make_unique<GumbelLayerState>(cfg_, rng.fork(i + 1)));
    layers_[i]->set_noise_hook(states_[i].get());
  }
  for (nn::Param* p : net_.params()) {
    saved_requires_grad_.push_back(p->requires_grad);
    p->requires_grad = false;
  }
  net_.set_training(false);
}

GumbelGboTrainer::~GumbelGboTrainer() {
  for (auto* layer : layers_) layer->set_noise_hook(nullptr);
  auto params = net_.params();
  for (std::size_t i = 0;
       i < params.size() && i < saved_requires_grad_.size(); ++i)
    params[i]->requires_grad = saved_requires_grad_[i];
}

double GumbelGboTrainer::temperature_at(std::size_t epoch) const {
  const std::size_t total = cfg_.base.epochs;
  if (total <= 1) return cfg_.tau_end;
  const double frac =
      static_cast<double>(epoch) / static_cast<double>(total - 1);
  return cfg_.tau_start *
         std::pow(cfg_.tau_end / cfg_.tau_start, frac);
}

std::vector<GboEpochStats> GumbelGboTrainer::train(const data::Dataset& train) {
  std::vector<nn::Param*> lambdas;
  lambdas.reserve(states_.size());
  for (auto& st : states_) lambdas.push_back(&st->lambda());
  nn::Adam opt(lambdas, cfg_.base.lr);

  Rng loader_rng(cfg_.base.seed ^ 0xABCDEF);
  data::DataLoader loader(train, cfg_.base.batch_size, /*shuffle=*/true,
                          loader_rng);

  std::vector<GboEpochStats> history;
  for (std::size_t epoch = 0; epoch < cfg_.base.epochs; ++epoch) {
    const double tau = temperature_at(epoch);
    for (auto& st : states_) st->set_temperature(tau);

    GboEpochStats stats;
    std::size_t batches = 0, correct = 0, seen = 0;
    loader.reset();
    data::Batch batch;
    while (loader.next(batch)) {
      opt.zero_grad();
      Tensor logits = net_.forward(batch.images);
      Tensor grad;
      const float ce =
          nn::CrossEntropy::forward_backward(logits, batch.labels, grad);
      net_.backward(grad);
      for (auto& st : states_) st->accumulate_latency_grad();
      opt.step();

      stats.loss_ce += ce;
      const auto preds = ops::argmax_rows(logits);
      for (std::size_t i = 0; i < preds.size(); ++i)
        if (preds[i] == batch.labels[i]) ++correct;
      seen += preds.size();
      ++batches;
    }
    stats.loss_ce /= static_cast<float>(batches);
    stats.train_accuracy =
        static_cast<float>(correct) / static_cast<float>(seen);
    double total_expected = 0.0, latency_loss = 0.0;
    for (auto& st : states_) {
      const double e = st->expected_pulses();
      total_expected += e;
      latency_loss += cfg_.base.gamma * e;
    }
    stats.loss_latency = static_cast<float>(latency_loss);
    stats.avg_expected_pulses =
        total_expected / static_cast<double>(states_.size());
    history.push_back(stats);
    log_info("GumbelGBO epoch ", epoch + 1, "/", cfg_.base.epochs,
             " tau=", tau, " ce=", stats.loss_ce,
             " avg_pulses=", stats.avg_expected_pulses);
  }
  return history;
}

std::vector<std::size_t> GumbelGboTrainer::selected_pulses() const {
  std::vector<std::size_t> out;
  out.reserve(states_.size());
  for (const auto& st : states_) out.push_back(st->selected_pulses());
  return out;
}

double GumbelGboTrainer::avg_selected_pulses() const {
  double acc = 0.0;
  for (const auto& st : states_)
    acc += static_cast<double>(st->selected_pulses());
  return states_.empty() ? 0.0 : acc / static_cast<double>(states_.size());
}

}  // namespace gbo::opt
