// Binary-weight layers with a crossbar noise attachment point.
//
// QuantConv2d / QuantLinear behave exactly like Conv2d / Linear except that
// the forward pass uses the binarized weight (the ±1 sign matrix a binary
// crossbar would physically store), the per-layer digital scale is applied
// as a separate output epilogue, and the backward pass applies the STE.
// Factoring the scale out of the MVM is what lets the stateless infer path
// route on-grid activations through the int8 level-code kernels
// (tensor/gemm_binary.hpp) while staying bitwise equal to forward()
// (DESIGN.md §8).
//
// Each layer exposes an MvmNoiseHook slot. The hook is invoked on the MVM
// output (Eq. 1: o = Wx + noise) and observes the output gradient in
// backward. Every execution mode of the paper is a different hook:
//   * pre-training           -> no hook (ideal digital MVM)
//   * noisy evaluation       -> GaussianNoiseHook (src/crossbar)
//   * NIA fine-tuning        -> GaussianNoiseHook while training weights
//   * GBO λ training         -> GboNoiseHook (src/gbo) — α-weighted mixture
// The stateless infer path calls the hook's const counterparts with the
// context's noise streams (EvalContext::streams(), DESIGN.md §6): one
// stream per trial, or one per request in a fused serving batch.
#pragma once

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_binary.hpp"

#include <atomic>
#include <span>
#include <vector>

namespace gbo::quant {

/// Attachment point for crossbar-noise simulation on an MVM output.
class MvmNoiseHook {
 public:
  virtual ~MvmNoiseHook() = default;

  /// Mutates the layer input in place before the MVM. This models the
  /// encoder/DAC side: e.g. PLA re-quantization snaps activations to the
  /// levels representable by the active pulse count. Default: no-op.
  virtual void on_input(Tensor& /*x*/) {}

  /// Mutates the MVM output in place (adds noise). `out` is the layer
  /// output before any digital post-processing (bias add excluded — biases
  /// are digital registers, not crossbar columns, so they see no noise; the
  /// layers therefore run bias-free in crossbar configurations).
  virtual void on_forward(Tensor& out) = 0;

  /// Observes the gradient arriving at the MVM output. Additive noise means
  /// the data gradient is unchanged; hooks that own learnable parameters
  /// (GBO's λ) accumulate their gradients here.
  virtual void on_backward(const Tensor& /*grad_out*/) {}

  // -- stateless inference path ---------------------------------------------
  // Counterparts of on_input/on_forward used by Module::infer: identical
  // transforms, but const on the hook with every random draw taken from the
  // caller's EvalContext streams, so one hook instance can serve any number
  // of concurrent inference contexts. Training-only hooks (the GBO λ
  // mixture states) keep the defaults: input pass-through, and a throwing
  // infer_output — λ training has no stateless evaluation mode.

  /// Input transform; draws nothing (the encoder side is deterministic).
  virtual void infer_input(Tensor& /*x*/) const {}

  /// Output noise drawn from `streams` (EvalContext::streams()): stream s
  /// covers the s-th run of out.dim(0) / streams.size() consecutive batch
  /// rows (nn::stream_rows) and draws for them exactly what one stream over
  /// a batch holding only those rows would, so a fused micro-batch is
  /// bitwise row-equal to per-request execution (DESIGN.md §6).
  virtual void infer_output(Tensor& out, std::span<Rng> streams) const;

  /// True when infer_output may draw from the caller's streams in the
  /// current configuration. Conservative default: any attached hook is
  /// assumed stochastic; hooks whose randomness can be switched off (the
  /// Gaussian hook with noise disabled or sigma == 0) override this. The
  /// serving runtime consults it before fusing micro-batches
  /// (serve/backend.hpp).
  virtual bool stochastic() const { return true; }
};

/// Cross-request cache of a quant layer's frozen binarized weight, its
/// packed float panels, and its packed int8 sign panels, all stamped with
/// the latent weight's version counter (DESIGN.md §6): steady-state serving
/// re-binarizes and re-packs nothing, float or binary. Concurrency comes
/// from gemm::VersionGate (thread-safe lazy fill; the latent weight must not
/// be mutated concurrently with readers).
class BinaryPanelCache {
 public:
  BinaryPanelCache() = default;
  // Copies start cold ON PURPOSE (empty bodies, nothing adopted): the gate's
  // stamp belongs to the source object's version timeline, and the cached
  // buffers were derived from the source layer's latent weight — adopting
  // either would let a copied layer silently serve another layer's panels
  // (float or binary) after its own weights diverge. A copy re-binarizes
  // and re-packs on first use instead (tests/test_gemm_binary.cpp pins
  // this).
  BinaryPanelCache(const BinaryPanelCache&) {}
  BinaryPanelCache& operator=(const BinaryPanelCache&) { return *this; }

  /// Unscaled (±1) binarized copy of `latent` in *bw, its digital scale in
  /// *scale (1 when !scaled), its packed int8 signs and their row sums in
  /// *bsigns, and — when `want_panels` — its packed float panels ([n, k]
  /// transposed-weight layout) in *panels; all rebuilt only when
  /// latent.version() moved. `want_panels` must be constant per cache (it
  /// is: the owning layer derives it from its fixed shape). `taps` > 1 (a
  /// conv layer's k·k) packs the signs in the tap-major lane order of the
  /// binary conv route (im2col_codes_into): lane tap·(k / taps) + c holds
  /// latent column c·taps + tap. *bw and *panels keep the latent's own
  /// order.
  void get(const Tensor& latent, bool scaled, std::size_t n, std::size_t k,
           bool want_panels, const float** bw, const float** panels,
           const gbo::gemm::PackedBinaryB** bsigns, float* scale,
           std::size_t taps = 1) const;

  /// Lifetime rebuild count (1 after warmup for a frozen weight).
  std::uint64_t rebuilds() const {
    return rebuilds_.load(std::memory_order_relaxed);
  }

 private:
  gbo::gemm::VersionGate gate_;
  mutable std::vector<float> bw_;
  mutable std::vector<float> panels_;
  mutable gbo::gemm::PackedBinaryB bsigns_;
  mutable float scale_ = 1.0f;
  mutable std::atomic<std::uint64_t> rebuilds_{0};
};

/// Common interface of layers that accept a crossbar-noise hook. The VGG9
/// builder exposes its crossbar-mapped layers through this interface so the
/// evaluation/NIA/GBO controllers can attach per-layer hooks uniformly.
class Hookable {
 public:
  virtual ~Hookable() = default;
  virtual void set_noise_hook(MvmNoiseHook* hook) = 0;
  virtual MvmNoiseHook* noise_hook() const = 0;
  /// Rows × cols of the crossbar this layer maps to (out × fan-in).
  virtual std::size_t crossbar_rows() const = 0;
  virtual std::size_t crossbar_cols() const = 0;
  /// The latent (pre-binarization) weight parameter, for STE clamping.
  virtual gbo::nn::Param& latent_weight() = 0;
};

class QuantConv2d : public gbo::nn::Conv2d, public Hookable {
 public:
  /// Crossbar layers are bias-free (see MvmNoiseHook); `scaled` selects the
  /// per-layer mean-|w| scaling of the binarized weight.
  QuantConv2d(std::size_t out_channels, gbo::ConvGeom geom, Rng& rng,
              bool scaled = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, gbo::nn::EvalContext& ctx) const override;
  std::string kind() const override { return "QuantConv2d"; }

  void set_noise_hook(MvmNoiseHook* hook) override { hook_ = hook; }
  MvmNoiseHook* noise_hook() const override { return hook_; }
  std::size_t crossbar_rows() const override { return out_channels(); }
  std::size_t crossbar_cols() const override { return geom().patch_len(); }
  gbo::nn::Param& latent_weight() override { return weight_; }

  /// The ±1 sign matrix from the most recent forward (what the crossbar
  /// cells physically store), and the digital scale applied as a separate
  /// output epilogue (folded into the ADC reference / following BN on real
  /// hardware). The scale is NOT folded into binary_weight() — the MVM
  /// runs over ±1 so the level-code and float kernels agree bitwise
  /// (DESIGN.md §8).
  const Tensor& binary_weight() const { return binary_weight_; }
  float weight_scale() const { return weight_scale_; }

 protected:
  const Tensor& effective_weight() override;
  void on_weight_grad(Tensor& grad_w) override;

 private:
  /// Unscaled MVM for the stateless path: the int8 level-code kernel when
  /// every input value is on the 9-level grid (DESIGN.md §8), the cached
  /// float panels otherwise — bitwise-identical routes.
  Tensor infer_mvm(const Tensor& x, gbo::nn::EvalContext& ctx,
                   const float* bw, const float* panels,
                   const gbo::gemm::PackedBinaryB& bsigns) const;

  bool scaled_;
  MvmNoiseHook* hook_ = nullptr;
  Tensor binary_weight_;
  float weight_scale_ = 1.0f;
  // Frozen binarized weight + packed float/binary panels for the stateless
  // infer path, keyed on weight_.value.version().
  BinaryPanelCache cache_;
};

class QuantLinear : public gbo::nn::Linear, public Hookable {
 public:
  QuantLinear(std::size_t in_features, std::size_t out_features, Rng& rng,
              bool scaled = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, gbo::nn::EvalContext& ctx) const override;
  std::string kind() const override { return "QuantLinear"; }

  void set_noise_hook(MvmNoiseHook* hook) override { hook_ = hook; }
  MvmNoiseHook* noise_hook() const override { return hook_; }
  std::size_t crossbar_rows() const override { return out_features(); }
  std::size_t crossbar_cols() const override { return in_features(); }
  gbo::nn::Param& latent_weight() override { return weight_; }

  /// See QuantConv2d::binary_weight — ±1 signs; the digital scale is a
  /// separate epilogue.
  const Tensor& binary_weight() const { return binary_weight_; }
  float weight_scale() const { return weight_scale_; }

 protected:
  const Tensor& effective_weight() override;
  void on_weight_grad(Tensor& grad_w) override;

 private:
  /// See QuantConv2d::infer_mvm.
  Tensor infer_mvm(const Tensor& x, gbo::nn::EvalContext& ctx,
                   const float* bw, const float* panels,
                   const gbo::gemm::PackedBinaryB& bsigns) const;

  bool scaled_;
  MvmNoiseHook* hook_ = nullptr;
  Tensor binary_weight_;
  float weight_scale_ = 1.0f;
  // Frozen binarized weight + packed float/binary panels for the stateless
  // infer path, keyed on weight_.value.version().
  BinaryPanelCache cache_;
};

}  // namespace gbo::quant
