// End-to-end training/evaluation pipeline (paper §IV-A).
//
// Stages:
//  1. pretrain()         — quantization-aware training of the BWNN with
//                          cross-entropy (SGD + momentum, step LR schedule);
//  2. nia_finetune()     — optional noise-aware fine-tuning (src/nia);
//  3. GboTrainer         — λ-only bit-encoding optimization (src/gbo);
//  4. evaluate*()        — clean or noisy accuracy, with noisy evaluation
//                          averaged over several independent noise draws.
//
// load_or_pretrain() adds artifact caching so every benchmark binary shares
// one pretrained checkpoint per configuration.
//
// Threading (two levels, both on the shared pool of common/thread_pool.hpp,
// sized by GBO_NUM_THREADS):
//  * per-batch kernels — GEMM in linear/conv2d, the conv input padding,
//    and the fused pulse-level MVM in attached crossbar layers;
//  * per-trial dispatch — evaluate_noisy (and everything built on it:
//    calibrate_sigmas, the GBO searches, the NIA validation loop) runs its
//    independent noise-draw trials concurrently, one stateless EvalContext
//    per trial over the shared frozen weights (nn::Module::infer). While
//    trials occupy the pool, the kernels inside them run inline — trial
//    parallelism is the outer, coarser and therefore winning level for the
//    trial-heavy benches.
// Trial t draws its noise from the controller's counter-based fork
// (seed, trial_id) — see LayerNoiseController::trial_rng and DESIGN.md §3 —
// so results are bitwise identical to the retained sequential oracle
// (evaluate_noisy_sequential) at any thread count, and pretrain/evaluate
// numbers do not depend on the machine's core count.
#pragma once

#include "crossbar/crossbar_layers.hpp"
#include "data/dataloader.hpp"
#include "models/resnet.hpp"
#include "models/vgg9.hpp"
#include "nn/sequential.hpp"

#include <string>
#include <vector>

namespace gbo::core {

struct PretrainConfig {
  std::size_t epochs = 15;
  float lr = 0.02f;
  float momentum = 0.9f;            // paper §IV-A
  float weight_decay = 5e-4f;       // paper §IV-A
  std::vector<double> lr_milestones = {0.5, 0.7, 0.9};  // paper §IV-A
  float lr_decay = 0.1f;
  std::size_t batch_size = 32;
  bool augment_flip = true;
  std::uint64_t seed = 99;

  std::string fingerprint() const;
};

struct PretrainStats {
  std::vector<float> train_loss;
  std::vector<float> train_acc;
  float test_acc = 0.0f;
};

/// Quantization-aware pre-training with cross-entropy.
PretrainStats pretrain(nn::Sequential& net,
                       const std::vector<quant::Hookable*>& binary_layers,
                       const data::Dataset& train, const data::Dataset& test,
                       const PretrainConfig& cfg);

/// Clean test accuracy via the stateless inference path (eval-mode
/// semantics regardless of the network's training flag; no module state
/// touched). An empty dataset returns 0.0 with a logged warning.
float evaluate(const nn::Sequential& net, const data::Dataset& test,
               std::size_t batch_size = 64);

/// One full pass over `test` in the caller's EvalContext: the unit of work
/// a noisy-evaluation trial dispatches onto the thread pool. Exposed for
/// benches/tests that drive their own contexts.
float evaluate_trial(const nn::Sequential& net, const data::Dataset& test,
                     std::size_t batch_size, nn::EvalContext& ctx);

/// Noisy test accuracy: mean over `trials` independent noise draws, the
/// trials dispatched concurrently onto the shared thread pool (one
/// EvalContext per trial, seeded ctrl.trial_rng(trial_id)). The controller
/// must already be attached and configured. Bitwise identical to
/// evaluate_noisy_sequential at any GBO_NUM_THREADS. Degenerate inputs
/// (trials == 0 or an empty dataset) return 0.0 with a logged warning.
float evaluate_noisy(const nn::Sequential& net,
                     xbar::LayerNoiseController& ctrl,
                     const data::Dataset& test, std::size_t trials = 3,
                     std::size_t batch_size = 64);

/// Retained sequential evaluator — the equivalence oracle: same
/// (seed, trial_id) contract and float accumulation order as
/// evaluate_noisy, trials run in order on the calling thread.
float evaluate_noisy_sequential(const nn::Sequential& net,
                                xbar::LayerNoiseController& ctrl,
                                const data::Dataset& test,
                                std::size_t trials = 3,
                                std::size_t batch_size = 64);

/// Loads the pretrained checkpoint for (model, data, pretrain) fingerprints
/// if cached, otherwise pretrains and saves it. Returns the clean test
/// accuracy (recomputed on load so staleness is visible).
float load_or_pretrain(models::Vgg9& model, const data::Dataset& train,
                       const data::Dataset& test, const PretrainConfig& cfg,
                       const std::string& data_fingerprint);

/// ResNet variant of the same cache-or-train entry point.
float load_or_pretrain(models::ResNet& model, const data::Dataset& train,
                       const data::Dataset& test, const PretrainConfig& cfg,
                       const std::string& data_fingerprint);

/// Finds per-pulse noise σ values such that the *baseline* configuration
/// (uniform base pulses) degrades to each target accuracy, via bisection on
/// [0, sigma_hi]. This anchors the paper's σ ∈ {10, 15, 20} operating
/// points on our fan-in (see DESIGN.md §2). Each bisection step's trials
/// run trial-parallel (evaluate_noisy). Degenerate inputs (trials == 0 or
/// an empty dataset) yield all-zero sigmas with a logged warning.
std::vector<double> calibrate_sigmas(nn::Sequential& net,
                                     xbar::LayerNoiseController& ctrl,
                                     const data::Dataset& test,
                                     const std::vector<double>& target_acc,
                                     double sigma_hi = 64.0,
                                     std::size_t iters = 7,
                                     std::size_t trials = 2);

}  // namespace gbo::core
