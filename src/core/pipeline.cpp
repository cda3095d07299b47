#include "core/pipeline.hpp"

#include "common/artifact_cache.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "quant/binary_weight.hpp"
#include "tensor/ops.hpp"

#include <sstream>

namespace gbo::core {

namespace {

/// Fixed-order mean so the parallel and sequential evaluators accumulate
/// identically (trial results land in per-trial slots first).
float mean_accuracy(const std::vector<float>& acc) {
  float sum = 0.0f;
  for (float a : acc) sum += a;
  return sum / static_cast<float>(acc.size());
}

bool degenerate_noisy_inputs(const data::Dataset& test, std::size_t trials,
                             const char* fn) {
  if (trials == 0) {
    log_warn(fn, ": trials == 0, returning 0");
    return true;
  }
  if (test.size() == 0) {
    log_warn(fn, ": empty test dataset, returning 0");
    return true;
  }
  return false;
}

}  // namespace

std::string PretrainConfig::fingerprint() const {
  std::ostringstream oss;
  oss << "pretrain:e" << epochs << ":lr" << lr << ":m" << momentum << ":wd"
      << weight_decay << ":b" << batch_size << ":aug" << augment_flip << ":seed"
      << seed;
  return oss.str();
}

PretrainStats pretrain(nn::Sequential& net,
                       const std::vector<quant::Hookable*>& binary_layers,
                       const data::Dataset& train, const data::Dataset& test,
                       const PretrainConfig& cfg) {
  Rng rng(cfg.seed);
  nn::SGD opt(net.params(), cfg.lr, cfg.momentum, cfg.weight_decay);
  nn::StepLR sched(opt, cfg.epochs, cfg.lr_milestones, cfg.lr_decay);
  data::DataLoader loader(train, cfg.batch_size, /*shuffle=*/true, rng.fork(1),
                          cfg.augment_flip);

  PretrainStats stats;
  net.set_training(true);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    sched.on_epoch(epoch);
    float loss_acc = 0.0f;
    std::size_t batches = 0, correct = 0, seen = 0;
    loader.reset();
    data::Batch batch;
    while (loader.next(batch)) {
      opt.zero_grad();
      Tensor logits = net.forward(batch.images);
      Tensor grad;
      loss_acc += nn::CrossEntropy::forward_backward(logits, batch.labels, grad);
      net.backward(grad);
      opt.step();
      for (quant::Hookable* layer : binary_layers)
        quant::clamp_latent(layer->latent_weight().value);

      const auto preds = ops::argmax_rows(logits);
      for (std::size_t i = 0; i < preds.size(); ++i)
        if (preds[i] == batch.labels[i]) ++correct;
      seen += preds.size();
      ++batches;
    }
    stats.train_loss.push_back(loss_acc / static_cast<float>(batches));
    stats.train_acc.push_back(static_cast<float>(correct) /
                              static_cast<float>(seen));
    log_info("pretrain epoch ", epoch + 1, "/", cfg.epochs,
             " loss=", stats.train_loss.back(), " acc=", stats.train_acc.back());
  }
  stats.test_acc = evaluate(net, test);
  log_info("pretrain done: clean test acc=", stats.test_acc);
  return stats;
}

float evaluate_trial(const nn::Sequential& net, const data::Dataset& test,
                     std::size_t batch_size, nn::EvalContext& ctx) {
  Rng rng(0);  // unused (no shuffling)
  data::DataLoader loader(test, batch_size, /*shuffle=*/false, rng);
  std::size_t correct = 0, seen = 0;
  data::Batch batch;
  while (loader.next(batch)) {
    const Tensor logits = net.infer(batch.images, ctx);
    const auto preds = ops::argmax_rows(logits);
    for (std::size_t i = 0; i < preds.size(); ++i)
      if (preds[i] == batch.labels[i]) ++correct;
    seen += preds.size();
  }
  return seen == 0 ? 0.0f
                   : static_cast<float>(correct) / static_cast<float>(seen);
}

float evaluate(const nn::Sequential& net, const data::Dataset& test,
               std::size_t batch_size) {
  if (test.size() == 0) {
    log_warn("evaluate: empty test dataset, returning 0");
    return 0.0f;
  }
  // Clean evaluation is deterministic: a fixed-seed context so any enabled
  // noise hooks draw a reproducible stream.
  nn::EvalContext ctx(Rng(0));
  return evaluate_trial(net, test, batch_size, ctx);
}

float evaluate_noisy(const nn::Sequential& net,
                     xbar::LayerNoiseController& ctrl,
                     const data::Dataset& test, std::size_t trials,
                     std::size_t batch_size) {
  if (degenerate_noisy_inputs(test, trials, "evaluate_noisy")) return 0.0f;
  const std::uint64_t base = ctrl.allocate_trials(trials);
  std::vector<float> acc(trials, 0.0f);
  // One pool block per trial: each trial is self-contained (own context,
  // own loader), so dynamic block claiming cannot change any trial's bits.
  parallel_for(0, trials, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t t = lo; t < hi; ++t) {
      nn::EvalContext ctx(ctrl.trial_rng(base + t));
      acc[t] = evaluate_trial(net, test, batch_size, ctx);
    }
  });
  return mean_accuracy(acc);
}

float evaluate_noisy_sequential(const nn::Sequential& net,
                                xbar::LayerNoiseController& ctrl,
                                const data::Dataset& test, std::size_t trials,
                                std::size_t batch_size) {
  if (degenerate_noisy_inputs(test, trials, "evaluate_noisy_sequential"))
    return 0.0f;
  const std::uint64_t base = ctrl.allocate_trials(trials);
  std::vector<float> acc(trials, 0.0f);
  for (std::size_t t = 0; t < trials; ++t) {
    nn::EvalContext ctx(ctrl.trial_rng(base + t));
    acc[t] = evaluate_trial(net, test, batch_size, ctx);
  }
  return mean_accuracy(acc);
}

namespace {

/// The shared cache-or-train body: `artifact` names the checkpoint family
/// (one per model type) under which the fingerprinted state dict is kept.
template <typename Model>
float load_or_pretrain_as(const char* artifact, Model& model,
                          const data::Dataset& train,
                          const data::Dataset& test, const PretrainConfig& cfg,
                          const std::string& data_fingerprint) {
  const std::string fp = model.config.fingerprint() + "|" + data_fingerprint +
                         "|" + cfg.fingerprint();
  const std::string path = artifact_path(artifact, fp);
  if (artifact_exists(path)) {
    bool ok = false;
    const StateDict state = load_state_dict(path, &ok);
    if (ok) {
      model.net->load_state_dict(state);
      const float acc = evaluate(*model.net, test);
      log_info("loaded pretrained checkpoint ", path, " (clean acc=", acc, ")");
      return acc;
    }
  }
  log_info("no cached checkpoint; pretraining (", fp, ")");
  const PretrainStats stats =
      pretrain(*model.net, model.binary, train, test, cfg);
  if (!save_state_dict(path, model.net->state_dict()))
    log_warn("could not save checkpoint to ", path);
  return stats.test_acc;
}

}  // namespace

float load_or_pretrain(models::Vgg9& model, const data::Dataset& train,
                       const data::Dataset& test, const PretrainConfig& cfg,
                       const std::string& data_fingerprint) {
  return load_or_pretrain_as("vgg9-pretrained", model, train, test, cfg,
                             data_fingerprint);
}

float load_or_pretrain(models::ResNet& model, const data::Dataset& train,
                       const data::Dataset& test, const PretrainConfig& cfg,
                       const std::string& data_fingerprint) {
  return load_or_pretrain_as("resnet-pretrained", model, train, test, cfg,
                             data_fingerprint);
}

std::vector<double> calibrate_sigmas(nn::Sequential& net,
                                     xbar::LayerNoiseController& ctrl,
                                     const data::Dataset& test,
                                     const std::vector<double>& target_acc,
                                     double sigma_hi, std::size_t iters,
                                     std::size_t trials) {
  if (degenerate_noisy_inputs(test, trials, "calibrate_sigmas"))
    return std::vector<double>(target_acc.size(), 0.0);
  ctrl.attach();
  ctrl.set_enabled_all(true);
  ctrl.set_uniform_pulses(ctrl.base_pulses());

  std::vector<double> sigmas;
  for (double target : target_acc) {
    double lo = 0.0, hi = sigma_hi;
    for (std::size_t i = 0; i < iters; ++i) {
      const double mid = 0.5 * (lo + hi);
      ctrl.set_sigma(mid);
      const float acc = evaluate_noisy(net, ctrl, test, trials);
      // Accuracy decreases monotonically (in expectation) with σ.
      if (acc > target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const double sigma = 0.5 * (lo + hi);
    sigmas.push_back(sigma);
    log_info("calibrated sigma=", sigma, " for target baseline acc=", target);
  }
  ctrl.detach();
  return sigmas;
}

}  // namespace gbo::core
