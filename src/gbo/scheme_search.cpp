#include "gbo/scheme_search.hpp"

#include "common/logging.hpp"
#include "core/pipeline.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace gbo::opt {

std::string SchemeCandidate::name() const {
  std::ostringstream os;
  os << (spec.scheme == enc::Scheme::kThermometer ? "TC" : "BS") << "-"
     << spec.num_pulses;
  return os.str();
}

std::vector<SchemeCandidate> default_mixed_candidates(std::size_t base_pulses) {
  std::vector<SchemeCandidate> out;
  // Thermometer at the paper's PLA pulse lengths {p/2 .. 2p}.
  for (double scale : {0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0}) {
    SchemeCandidate c;
    c.spec.scheme = enc::Scheme::kThermometer;
    c.spec.num_pulses = enc::scaled_pulse_count(scale, base_pulses);
    out.push_back(c);
  }
  // Bit slicing carrying comparable information: 3 pulses ≈ 8 levels
  // (vs thermometer's 9 levels at 8 pulses), then 4 pulses = 16 levels.
  for (std::size_t p : {3, 4}) {
    SchemeCandidate c;
    c.spec.scheme = enc::Scheme::kBitSlicing;
    c.spec.num_pulses = p;
    out.push_back(c);
  }
  return out;
}

float evaluate_selection(const nn::Sequential& net,
                         xbar::LayerNoiseController& ctrl,
                         const std::vector<SchemeCandidate>& selection,
                         const data::Dataset& test, std::size_t trials,
                         std::size_t batch_size) {
  if (selection.size() != ctrl.num_layers())
    throw std::invalid_argument(
        "evaluate_selection: selection length does not match the network");
  std::vector<enc::EncodingSpec> specs;
  specs.reserve(selection.size());
  for (const SchemeCandidate& c : selection) specs.push_back(c.spec);
  ctrl.set_specs(specs);
  return core::evaluate_noisy(net, ctrl, test, trials, batch_size);
}

namespace {

std::vector<double> candidate_stds(const MixedGboConfig& cfg) {
  std::vector<double> stds;
  for (const SchemeCandidate& c : cfg.candidates)
    stds.push_back(cfg.sigma * std::sqrt(c.variance_factor()));
  return stds;
}

}  // namespace

MixedLayerState::MixedLayerState(const MixedGboConfig& cfg, Rng rng)
    : cfg_(cfg), rng_(rng), noise_(candidate_stds(cfg)) {
  if (cfg_.candidates.empty())
    throw std::invalid_argument("MixedGbo: empty candidate set");
  lambda_ = nn::Param("lambda", Tensor({cfg_.candidates.size()}));
}

std::vector<double> MixedLayerState::alpha() const { return softmax(lambda_); }

void MixedLayerState::on_forward(Tensor& out) {
  cached_alpha_ = alpha();
  const std::vector<float> coeffs(cached_alpha_.begin(), cached_alpha_.end());
  noise_.draw(out, rng_, coeffs.data());
}

void MixedLayerState::on_backward(const Tensor& grad_out) {
  accumulate_lambda_grad(lambda_, cached_alpha_, noise_.dots(grad_out));
}

void MixedLayerState::accumulate_latency_grad() {
  const std::size_t m = cfg_.candidates.size();
  const auto a = alpha();
  double expected = 0.0;
  for (std::size_t k = 0; k < m; ++k)
    expected += a[k] * static_cast<double>(cfg_.candidates[k].pulses());
  for (std::size_t j = 0; j < m; ++j)
    lambda_.grad[j] += static_cast<float>(
        cfg_.gamma * a[j] *
        (static_cast<double>(cfg_.candidates[j].pulses()) - expected));
}

double MixedLayerState::expected_pulses() const {
  const auto a = alpha();
  double expected = 0.0;
  for (std::size_t k = 0; k < cfg_.candidates.size(); ++k)
    expected += a[k] * static_cast<double>(cfg_.candidates[k].pulses());
  return expected;
}

std::size_t MixedLayerState::selected_index() const {
  std::size_t best = 0;
  for (std::size_t k = 1; k < cfg_.candidates.size(); ++k)
    if (lambda_.value[k] > lambda_.value[best]) best = k;
  return best;
}

const SchemeCandidate& MixedLayerState::selected() const {
  return cfg_.candidates[selected_index()];
}

MixedGboTrainer::MixedGboTrainer(nn::Sequential& net,
                                 std::vector<quant::Hookable*> encoded_layers,
                                 MixedGboConfig cfg)
    : net_(net), layers_(std::move(encoded_layers)), cfg_(std::move(cfg)) {
  Rng rng(cfg_.seed);
  states_.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    states_.push_back(std::make_unique<MixedLayerState>(cfg_, rng.fork(i + 1)));
    layers_[i]->set_noise_hook(states_[i].get());
  }
  for (nn::Param* p : net_.params()) {
    saved_requires_grad_.push_back(p->requires_grad);
    p->requires_grad = false;
  }
  net_.set_training(false);
}

MixedGboTrainer::~MixedGboTrainer() {
  for (auto* layer : layers_) layer->set_noise_hook(nullptr);
  auto params = net_.params();
  for (std::size_t i = 0;
       i < params.size() && i < saved_requires_grad_.size(); ++i)
    params[i]->requires_grad = saved_requires_grad_[i];
}

std::vector<GboEpochStats> MixedGboTrainer::train(const data::Dataset& train) {
  std::vector<nn::Param*> lambdas;
  lambdas.reserve(states_.size());
  for (auto& st : states_) lambdas.push_back(&st->lambda());
  nn::Adam opt(lambdas, cfg_.lr);

  Rng loader_rng(cfg_.seed ^ 0xABCDEF);
  data::DataLoader loader(train, cfg_.batch_size, /*shuffle=*/true,
                          loader_rng);

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
      latency_loss += cfg_.gamma * e;
    }
    stats.loss_latency = static_cast<float>(latency_loss);
    stats.avg_expected_pulses =
        total_expected / static_cast<double>(states_.size());
    history.push_back(stats);
    log_info("MixedGBO epoch ", epoch + 1, "/", cfg_.epochs,
             " ce=", stats.loss_ce,
             " avg_pulses=", stats.avg_expected_pulses);
  }
  return history;
}

std::vector<SchemeCandidate> MixedGboTrainer::selected() const {
  std::vector<SchemeCandidate> out;
  out.reserve(states_.size());
  for (const auto& st : states_) out.push_back(st->selected());
  return out;
}

std::vector<std::size_t> MixedGboTrainer::selected_pulses() const {
  std::vector<std::size_t> out;
  out.reserve(states_.size());
  for (const auto& st : states_) out.push_back(st->selected().pulses());
  return out;
}

double MixedGboTrainer::avg_selected_pulses() const {
  double acc = 0.0;
  for (const auto& st : states_)
    acc += static_cast<double>(st->selected().pulses());
  return states_.empty() ? 0.0 : acc / static_cast<double>(states_.size());
}

std::string MixedGboTrainer::selection_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (i) os << ", ";
    os << states_[i]->selected().name();
  }
  os << "]";
  return os.str();
}

}  // namespace gbo::opt
