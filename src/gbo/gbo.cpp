#include "gbo/gbo.hpp"

#include "common/logging.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

#include <cmath>
#include <stdexcept>

namespace gbo::opt {

std::vector<std::size_t> GboConfig::pulse_lengths() const {
  std::vector<std::size_t> out;
  out.reserve(scale_set.size());
  for (double s : scale_set)
    out.push_back(enc::scaled_pulse_count(s, base_pulses));
  return out;
}

std::vector<double> scheme_stds(double sigma,
                                const std::vector<std::size_t>& pulses) {
  // Thermometer variance factor at n_k pulses: σ²/n_k (Eq. 4 with n·p
  // realized pulses).
  std::vector<double> stds;
  for (std::size_t n : pulses)
    stds.push_back(sigma / std::sqrt(static_cast<double>(n)));
  return stds;
}

GboLayerState::GboLayerState(const GboConfig& cfg, Rng rng)
    : cfg_(cfg), pulses_(cfg.pulse_lengths()), rng_(rng),
      noise_(scheme_stds(cfg.sigma, pulses_)) {
  if (pulses_.empty()) throw std::invalid_argument("GBO: empty scale set");
  // λ starts uniform (all schemes equally likely).
  lambda_ = nn::Param("lambda", Tensor({pulses_.size()}));
}

std::vector<double> GboLayerState::alpha() const { return softmax(lambda_); }

void GboLayerState::on_forward(Tensor& out) {
  cached_alpha_ = alpha();
  const std::vector<float> coeffs(cached_alpha_.begin(), cached_alpha_.end());
  noise_.draw(out, rng_, coeffs.data());
}

void GboLayerState::on_backward(const Tensor& grad_out) {
  // c_k = <grad_out, ε_k>; then (Eq. 7, softmax jacobian)
  // ∂L/∂λ_j = α_j (c_j - Σ_k α_k c_k).
  accumulate_lambda_grad(lambda_, cached_alpha_, noise_.dots(grad_out));
}

void GboLayerState::accumulate_latency_grad() {
  const std::size_t m = pulses_.size();
  const auto a = alpha();
  double expected = 0.0;
  for (std::size_t k = 0; k < m; ++k)
    expected += a[k] * static_cast<double>(pulses_[k]);
  for (std::size_t j = 0; j < m; ++j)
    lambda_.grad[j] += static_cast<float>(
        cfg_.gamma * a[j] * (static_cast<double>(pulses_[j]) - expected));
}

double GboLayerState::expected_pulses() const {
  const auto a = alpha();
  double expected = 0.0;
  for (std::size_t k = 0; k < pulses_.size(); ++k)
    expected += a[k] * static_cast<double>(pulses_[k]);
  return expected;
}

std::size_t GboLayerState::selected_scheme() const {
  std::size_t best = 0;
  for (std::size_t k = 1; k < pulses_.size(); ++k)
    if (lambda_.value[k] > lambda_.value[best]) best = k;
  return best;
}

std::size_t GboLayerState::selected_pulses() const {
  return pulses_[selected_scheme()];
}

GboTrainer::GboTrainer(nn::Sequential& net,
                       std::vector<quant::Hookable*> encoded_layers,
                       GboConfig cfg)
    : net_(net), layers_(std::move(encoded_layers)), cfg_(cfg) {
  Rng rng(cfg_.seed);
  states_.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    states_.push_back(std::make_unique<GboLayerState>(cfg_, rng.fork(i + 1)));
    layers_[i]->set_noise_hook(states_[i].get());
  }
  // Freeze the pre-trained network: GBO only trains λ (paper §III-A).
  for (nn::Param* p : net_.params()) {
    saved_requires_grad_.push_back(p->requires_grad);
    p->requires_grad = false;
  }
  // BN running statistics are frozen too (eval mode) for stable convergence.
  net_.set_training(false);
}

GboTrainer::~GboTrainer() {
  for (auto* layer : layers_) layer->set_noise_hook(nullptr);
  auto params = net_.params();
  for (std::size_t i = 0; i < params.size() && i < saved_requires_grad_.size(); ++i)
    params[i]->requires_grad = saved_requires_grad_[i];
}

std::vector<GboEpochStats> GboTrainer::train(const data::Dataset& train) {
  std::vector<nn::Param*> lambdas;
  lambdas.reserve(states_.size());
  for (auto& st : states_) lambdas.push_back(&st->lambda());
  nn::Adam opt(lambdas, cfg_.lr);

  Rng loader_rng(cfg_.seed ^ 0xABCDEF);
  data::DataLoader loader(train, cfg_.batch_size, /*shuffle=*/true, loader_rng);

  std::vector<GboEpochStats> history;
  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
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
      net_.backward(grad);  // λ gradients accumulate via on_backward
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
    stats.train_accuracy = static_cast<float>(correct) / static_cast<float>(seen);
    double total_expected = 0.0, latency_loss = 0.0;
    for (auto& st : states_) {
      const double e = st->expected_pulses();
      total_expected += e;
      latency_loss += cfg_.gamma * e;
    }
    stats.loss_latency = static_cast<float>(latency_loss);
    stats.avg_expected_pulses = total_expected / static_cast<double>(states_.size());
    history.push_back(stats);
    log_info("GBO epoch ", epoch + 1, "/", cfg_.epochs, " ce=", stats.loss_ce,
             " acc=", stats.train_accuracy,
             " avg_pulses=", stats.avg_expected_pulses);
  }
  return history;
}

std::vector<std::size_t> GboTrainer::selected_pulses() const {
  std::vector<std::size_t> out;
  out.reserve(states_.size());
  for (const auto& st : states_) out.push_back(st->selected_pulses());
  return out;
}

double GboTrainer::avg_selected_pulses() const {
  double acc = 0.0;
  for (const auto& st : states_)
    acc += static_cast<double>(st->selected_pulses());
  return states_.empty() ? 0.0 : acc / static_cast<double>(states_.size());
}

}  // namespace gbo::opt
