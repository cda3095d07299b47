// Binary weight quantization (BinaryConnect-style, Courbariaux et al. 2015).
//
// A binary memristive crossbar stores each weight as a single on/off
// conductance pair, so the deployed weight is sign(w) (optionally scaled by
// a per-layer constant folded into the ADC reference / BN that follows).
// Training keeps latent float weights; the forward pass uses the binarized
// weight, and the straight-through estimator (STE) passes gradients to the
// latent weights, zeroing them where |w| > 1 (the saturation region).
#pragma once

#include "tensor/tensor.hpp"

namespace gbo::quant {

/// Returns sign(w) * scale. `scale`, when enabled, is the mean absolute
/// latent weight of the layer (XNOR-Net-style), which preserves the layer's
/// output magnitude; this constant is digital and does not touch the
/// crossbar cells.
Tensor binarize(const Tensor& latent, bool scaled, float* scale_out = nullptr);

/// Same quantization into a caller-provided buffer of latent.numel() floats
/// (arena scratch in the stateless infer path); bitwise identical.
void binarize_into(const Tensor& latent, bool scaled, float* out,
                   float* scale_out = nullptr);

/// The digital scale binarize uses when `scaled`: mean |w| over the layer
/// (double accumulation; 1 for empty or all-zero weights). Exposed so the
/// quant layers can run the MVM over the unscaled ±1 matrix and apply the
/// scale as a separate epilogue — the factorization the level-code binary
/// kernel path requires (DESIGN.md §8) — while computing the identical
/// scale value everywhere.
float binarize_scale(const Tensor& latent);

/// Process-wide count of binarizations (binarize / binarize_into). Relaxed
/// atomic; the serving bench diffs it across a steady-state run to prove
/// the quant layers' frozen-weight caches (quant_layers.hpp) have
/// amortized per-request re-binarization to zero.
std::uint64_t binarize_count();

/// STE backward: zeroes gradient entries where the latent weight saturates
/// (|w| > 1), in place.
void ste_clip_grad(const Tensor& latent, Tensor& grad);

/// Clamps latent weights to [-1, 1] after an optimizer step (keeps the
/// latent weights inside the STE pass-through region).
void clamp_latent(Tensor& latent);

}  // namespace gbo::quant
