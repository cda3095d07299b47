// Crossbar-side controllers and inference layers.
//
// LayerNoiseController owns one GaussianNoiseHook per crossbar-mapped layer
// of a network and drives every evaluation configuration of the paper:
//   * baseline           — uniform base pulses, noise on everywhere
//   * PLA-n              — uniform n pulses
//   * GBO solution       — heterogeneous per-layer pulse vector
//   * Fig. 2 sensitivity — noise enabled at exactly one layer
//
// CrossbarLinear is an inference-only module that executes a trained
// QuantLinear through the full pulse-level MvmEngine (device model
// included); it is the "run it on the actual simulated hardware" path used
// by examples and integration tests.
#pragma once

#include "crossbar/mvm_engine.hpp"
#include "nn/module.hpp"

#include <memory>
#include <vector>

namespace gbo::xbar {

class LayerNoiseController {
 public:
  /// `layers`: the network's crossbar-mapped layers, in forward order.
  /// Hooks are created detached; call attach() to install them.
  LayerNoiseController(std::vector<quant::Hookable*> layers, double sigma,
                       std::size_t base_pulses, Rng rng);

  /// Installs/removes the hooks on the layers.
  void attach();
  void detach();

  std::size_t num_layers() const { return layers_.size(); }
  std::size_t base_pulses() const { return base_pulses_; }

  /// Per-pulse noise std for all layers.
  void set_sigma(double sigma);

  /// Enables/disables noise injection on all layers.
  void set_enabled_all(bool enabled);

  /// Enables noise on exactly one layer (Fig. 2); all others are disabled.
  void isolate_layer(std::size_t idx);

  /// Sets each layer's thermometer pulse count (PLA / GBO solutions).
  void set_pulses(const std::vector<std::size_t>& pulses);
  void set_uniform_pulses(std::size_t pulses);

  /// Switches the encoding scheme on all layers (keeps pulse counts).
  /// Used by the network-level thermometer-vs-bit-slicing comparison.
  void set_scheme(enc::Scheme scheme);

  /// Sets a heterogeneous per-layer (scheme × pulse count) assignment.
  void set_specs(const std::vector<enc::EncodingSpec>& specs);

  /// Current per-layer pulse counts.
  std::vector<std::size_t> pulses() const;

  /// Mean pulse count across layers ("Avg.#pulses" column of Table I).
  double avg_pulses() const;

  GaussianNoiseHook& hook(std::size_t i) { return *hooks_.at(i); }

  // -- trial-parallel RNG contract (DESIGN.md §3) ---------------------------
  // Noisy evaluation draws trial t's entire noise stream from
  // trial_rng(trial_id), a counter-based fork of a controller-owned root
  // stream: the stream depends only on (construction seed, trial_id), never
  // on which thread runs the trial or in which order trials complete.
  // allocate_trials hands out consecutive trial-id windows so back-to-back
  // evaluations use fresh, still fully reproducible noise.

  /// The deterministic per-trial stream fork (seed, trial_id).
  Rng trial_rng(std::uint64_t trial_id) const {
    return trial_root_.fork(trial_id);
  }

  /// Reserves `n` consecutive trial ids; returns the first.
  std::uint64_t allocate_trials(std::size_t n) {
    const std::uint64_t base = next_trial_;
    next_trial_ += n;
    return base;
  }

 private:
  std::vector<quant::Hookable*> layers_;
  std::vector<std::unique_ptr<GaussianNoiseHook>> hooks_;
  std::size_t base_pulses_;
  Rng trial_root_;              // root of the (seed, trial_id) forks
  std::uint64_t next_trial_ = 0;
};

/// Inference-only linear layer executed on the simulated crossbar at pulse
/// granularity. Construct from the binary weight of a trained QuantLinear.
class CrossbarLinear : public nn::Module {
 public:
  CrossbarLinear(const Tensor& binary_weight, MvmConfig cfg, Rng rng)
      : engine_(binary_weight, cfg, rng) {}

  Tensor forward(const Tensor& x) override { return engine_.run_pulse_level(x); }
  Tensor backward(const Tensor&) override {
    throw std::logic_error("CrossbarLinear is inference-only");
  }
  /// Stateless pulse-level inference: read noise, ADC, and Eq. 1 output
  /// noise all drawn from the context's streams (one per request in fused
  /// stochastic serving, DESIGN.md §6) over the frozen (read-only)
  /// programmed array; noise scratch and the output recycle through the
  /// context's arena when one is attached.
  Tensor infer(const Tensor& x, nn::EvalContext& ctx) const override {
    return engine_.run_pulse_level(x, ctx.streams(), ctx.arena);
  }
  std::string kind() const override { return "CrossbarLinear"; }

  MvmEngine& engine() { return engine_; }
  const MvmEngine& engine() const { return engine_; }

 private:
  MvmEngine engine_;
};

}  // namespace gbo::xbar
