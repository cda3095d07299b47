// Gradient-based Bit encoding Optimization (GBO) — the paper's core
// contribution (§III-A).
//
// Each crossbar-mapped layer l owns a pulse-scaling set Ω (paper default
// {0.5, 0.75, 1, 1.25, 1.5, 1.75, 2}, realizable at non-integer multiples
// thanks to PLA) and learnable logits λ^l_k. During the GBO phase the
// network weights are frozen; forward passes add the α-weighted mixture of
// per-scheme crossbar noise (Eq. 5):
//     o_l = W o_{l-1} + Σ_k α^l_k ε_k ,  ε_k ~ N(0, σ²/n_k p),
// with α = softmax(λ). The objective (Eq. 6) is
//     L = L_ce + γ Σ_l Σ_k α^l_k · (n_k p),
// whose second term is the differentiable expected-latency regularizer.
// Gradients reach λ through the sampled noise (Eq. 7): schemes whose noise
// hurts the CE loss are pushed down, cheap-but-noisy schemes are traded
// against expensive-but-clean ones, and the optimizer finds the saddle
// point. At inference each layer uses argmax_k λ^l_k.
#pragma once

#include "common/rng.hpp"
#include "data/dataloader.hpp"
#include "encoding/pla.hpp"
#include "gbo/noise_mixture.hpp"
#include "nn/optim.hpp"
#include "nn/sequential.hpp"
#include "quant/quant_layers.hpp"

#include <memory>
#include <vector>

namespace gbo::opt {

struct GboConfig {
  /// Pulse scaling set Ω (multiples of the base pulse count).
  std::vector<double> scale_set = {0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0};
  std::size_t base_pulses = 8;   // p
  double sigma = 1.0;            // per-pulse crossbar noise std during training
  double gamma = 1e-3;           // latency-regularizer weight (Eq. 6)
  std::size_t epochs = 10;       // paper: 10 epochs of λ-only training
  float lr = 1e-4f;              // paper: ADAM, lr 1e-4
  std::size_t batch_size = 32;
  std::uint64_t seed = 21;

  /// The realizable pulse lengths round(scale * p) for each scheme.
  std::vector<std::size_t> pulse_lengths() const;
};

/// Per-scheme noise std σ/sqrt(n_k) of thermometer schemes at n_k pulses.
std::vector<double> scheme_stds(double sigma,
                                const std::vector<std::size_t>& pulses);

/// Per-layer GBO state: the λ logits and the Eq. 5 noise-mixture hook.
class GboLayerState : public quant::MvmNoiseHook {
 public:
  GboLayerState(const GboConfig& cfg, Rng rng);

  /// Adds Σ_k α_k ε_k to the MVM output; caches the ε_k samples.
  void on_forward(Tensor& out) override;

  /// Accumulates ∂L_ce/∂λ from the incoming output gradient (Eq. 7).
  void on_backward(const Tensor& grad_out) override;

  /// Adds the latency-regularizer gradient γ·∂(Σ α_k n_k p)/∂λ. Call once
  /// per optimization step (it is data independent).
  void accumulate_latency_grad();

  /// Current softmax probabilities α (recomputed from λ).
  std::vector<double> alpha() const;

  /// Expected latency Σ_k α_k n_k p in pulses.
  double expected_pulses() const;

  /// argmax_k λ_k — the scheme selected for inference.
  std::size_t selected_scheme() const;
  std::size_t selected_pulses() const;

  nn::Param& lambda() { return lambda_; }
  const std::vector<std::size_t>& pulses() const { return pulses_; }

 private:
  GboConfig cfg_;
  std::vector<std::size_t> pulses_;  // n_k · p per scheme
  nn::Param lambda_;                 // [m]
  Rng rng_;
  NoiseMixture noise_;  // ε_k of the last forward
  std::vector<double> cached_alpha_;
};

struct GboEpochStats {
  float loss_ce = 0.0f;
  float loss_latency = 0.0f;
  float train_accuracy = 0.0f;
  double avg_expected_pulses = 0.0;
};

/// Runs the GBO phase on a pre-trained network: freezes all network
/// parameters, attaches one GboLayerState per encoded layer, and optimizes
/// the λ logits with ADAM against Eq. 6.
class GboTrainer {
 public:
  GboTrainer(nn::Sequential& net, std::vector<quant::Hookable*> encoded_layers,
             GboConfig cfg);
  ~GboTrainer();

  GboTrainer(const GboTrainer&) = delete;
  GboTrainer& operator=(const GboTrainer&) = delete;

  /// One full optimization run over `train`; returns per-epoch stats.
  std::vector<GboEpochStats> train(const data::Dataset& train);

  /// Per-layer pulse counts selected by argmax λ.
  std::vector<std::size_t> selected_pulses() const;
  double avg_selected_pulses() const;

  GboLayerState& layer_state(std::size_t i) { return *states_.at(i); }
  std::size_t num_layers() const { return states_.size(); }

 private:
  nn::Sequential& net_;
  std::vector<quant::Hookable*> layers_;
  GboConfig cfg_;
  std::vector<std::unique_ptr<GboLayerState>> states_;
  std::vector<bool> saved_requires_grad_;
};

}  // namespace gbo::opt
