// Inference backends the serving runtime can drive.
//
// A Backend is a const view over a frozen model: run() must be safe to call
// concurrently from many workers as long as each passes its own EvalContext
// (the same contract as nn::Module::infer). Two implementations cover the
// repository's execution modes:
//
//   * AnalyticBackend — the host network through the stateless infer path;
//     with noise hooks attached this is the paper's analytic Eq. 2–4 noisy
//     evaluation, without them it is clean digital inference.
//   * PulseBackend — a deployed HardwareNetwork at pulse granularity
//     (device model, ADC, read noise included) via its const forward.
//
// Under the SLO control plane (serve/policy.hpp, DESIGN.md §7) the server
// holds two backends: the *primary* (typically PulseBackend) serves full-
// fidelity traffic, and a cheaper *degraded* backend (typically the
// analytic model) is the fidelity-ladder fallback under overload, breaker
// quarantine, or exhausted retries. Both are plain Backends — nothing here
// knows about the ladder; routing is the control plane's job.
//
// fusion_mode() tells the server how run() may execute micro-batches.
// Deterministic backends fuse into one whole-tensor call: every kernel in
// the infer path computes each batch row independently (row-stable GEMM
// dispatch, per-sample patch gathers/BN/pooling, elementwise activations), so the
// fused result is bitwise equal row-for-row to unit-batch execution — the
// batching-boundary half of the serving determinism contract, enforced by
// tests/test_serve.cpp. Stochastic configurations fuse too when every
// noise site supports per-sample row streams (DESIGN.md §6): each batch
// row draws from its own (seed, request_id) fork, which makes outputs
// independent of batch composition by construction. Only backends with
// opaque stochastic state fall back to unit-batch execution.
#pragma once

#include "crossbar/crossbar_layers.hpp"
#include "crossbar/hw_deploy.hpp"
#include "nn/eval_context.hpp"
#include "nn/sequential.hpp"

#include <string>

namespace gbo::serve {

/// How the server may execute micro-batches (frozen at warmup):
///   kFused          — run() draws nothing: whole-tensor fusion, no streams.
///   kFusedPerSample — run() draws, but every stochastic site supports
///                     per-sample row streams (DESIGN.md §6): batches fuse
///                     with ctx.row_rngs = fork(seed, request_id) per row,
///                     bitwise row-equal to per-request execution.
///   kPerRequest     — opaque stochastic state: unit batches only.
enum class FusionMode { kFused, kFusedPerSample, kPerRequest };

class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;

  /// True when run() draws nothing from ctx.rng; enables fused batching.
  virtual bool deterministic() const = 0;

  /// Conservative default: fuse only when fully deterministic. Backends
  /// whose stochastic sites all honour EvalContext::row_rngs override this
  /// to kFusedPerSample so noisy configurations batch their GEMMs too.
  virtual FusionMode fusion_mode() const {
    return deterministic() ? FusionMode::kFused : FusionMode::kPerRequest;
  }

  /// Logits for a [B, ...] input batch. Must not mutate shared state.
  virtual Tensor run(const Tensor& x, nn::EvalContext& ctx) const = 0;
};

/// Host network through nn::Module::infer. `stochastic` must be true
/// whenever attached noise hooks will draw from the context (e.g. a
/// LayerNoiseController with sigma > 0 and noise enabled). The flag is a
/// promise about *intent*; deterministic() additionally walks the whole
/// module tree (Hookable hooks, CrossbarLinear engines, nested containers
/// via Module::children), so a forgotten flag cannot silently fuse batches
/// over live noise hooks.
class AnalyticBackend : public Backend {
 public:
  AnalyticBackend(const nn::Sequential& net, bool stochastic = true)
      : net_(net), stochastic_(stochastic) {}

  std::string name() const override {
    return stochastic_ ? "analytic_noisy" : "analytic_clean";
  }
  bool deterministic() const override {
    return !stochastic_ && !module_stochastic(net_);
  }
  /// Stochastic configurations still fuse when every live noise hook
  /// supports per-sample row streams (CrossbarLinear engines always do);
  /// an opted-out hook falls back to unit batches, never to wrong fusion.
  FusionMode fusion_mode() const override {
    if (deterministic()) return FusionMode::kFused;
    return quant::hooks_support_row_streams(net_)
               ? FusionMode::kFusedPerSample
               : FusionMode::kPerRequest;
  }
  Tensor run(const Tensor& x, nn::EvalContext& ctx) const override {
    return net_.infer(x, ctx);
  }

 private:
  static bool module_stochastic(const nn::Module& m) {
    if (const auto* h = dynamic_cast<const quant::Hookable*>(&m))
      if (h->noise_hook() != nullptr && h->noise_hook()->stochastic())
        return true;
    if (const auto* cl = dynamic_cast<const xbar::CrossbarLinear*>(&m)) {
      const xbar::MvmConfig& cfg = cl->engine().config();
      if (cfg.sigma > 0.0 || cfg.device.read_noise_sigma > 0.0) return true;
    }
    for (const nn::Module* child : m.children())
      if (module_stochastic(*child)) return true;
    return false;
  }

  const nn::Sequential& net_;
  bool stochastic_;
};

/// Deployed crossbar hardware at pulse granularity (shared-safe const
/// forward over the frozen programmed engines).
class PulseBackend : public Backend {
 public:
  explicit PulseBackend(const xbar::HardwareNetwork& hw) : hw_(hw) {}

  std::string name() const override { return "pulse"; }
  bool deterministic() const override { return hw_.deterministic(); }
  FusionMode fusion_mode() const override {
    if (deterministic()) return FusionMode::kFused;
    return hw_.per_sample_capable() ? FusionMode::kFusedPerSample
                                    : FusionMode::kPerRequest;
  }
  Tensor run(const Tensor& x, nn::EvalContext& ctx) const override {
    return hw_.forward(x, ctx);
  }

 private:
  const xbar::HardwareNetwork& hw_;
};

}  // namespace gbo::serve
