// 2D convolution (square kernel) as packed GEMMs over a zero-padded copy of
// the input — one lowering for every geometry, forward and backward.
//
// Weight layout: [out_c, in_c * k * k], i.e. already flattened to the MVM
// matrix a crossbar tile would store. Conceptually forward multiplies the
// patch matrix cols [N·oh·ow, in_c·k·k] (what im2col would write) by Wᵀ.
// No patch matrix is ever materialized: the input is copied once into a
// buffer with `pad` zero rows and columns around every channel plane, after
// which element (r, p) of cols is a single load at
//   padded[origin(r) + tap(p)]
// — the receptive-field origin of output pixel r plus the fixed offset of
// patch column p — with no bounds checks. That gather runs inside the
// packed GEMM's A-panel packer (DESIGN.md §5):
//   * forward / infer: y = cols·Wᵀ over the cached packed weight panels
//     (gemm::PackedWeightCache, DESIGN.md §6), so steady-state serving
//     packs no conv weights. Infer bump-allocates the padded copy from the
//     context's arena; the conv infer path then performs no heap
//     allocation (tests/test_arena.cpp counts operator new).
//   * wgrad: dWᵀ = colsᵀ·grad_rows with the same gather as the A panel (rows
//     = patch columns) and grad_out packed once, straight from NCHW, as B.
//   * dgrad: per image Gᵀ = Wᵀ·grad_outₙ [patch_len, oh·ow] (small images
//     share a GEMM call), then each tap row of Gᵀ is added into dX in
//     descending tap order.
// Every product is bitwise equal to the im2col → GEMM → col2im route
// (DESIGN.md §5 gives the argument; tests/test_nn_layers.cpp and the
// bench_micro_mvm `conv_direct` gate check it) at any GBO_NUM_THREADS. The
// lowering depends only on the layer geometry, never on the batch, so fused
// serving batches stay bitwise row-equal to unit batches.
#pragma once

#include "common/rng.hpp"
#include "nn/module.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

#include <vector>

namespace gbo::nn {

class Conv2d : public Module {
 public:
  /// Geometry: square kernel `k`, stride, zero padding. Spatial input size
  /// (in_h/in_w of `geom`) is fixed at construction; this matches the fixed
  /// crossbar mapping of a deployed network.
  Conv2d(std::size_t out_channels, ConvGeom geom, bool bias, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, EvalContext& ctx) const override;
  std::vector<Param*> params() override;
  std::string kind() const override { return "Conv2d"; }

  const ConvGeom& geom() const { return geom_; }
  std::size_t out_channels() const { return out_c_; }
  Param& weight() { return weight_; }

 protected:
  /// Hooks mirroring Linear's, so the quantized subclass reuses this body.
  virtual const Tensor& effective_weight();
  virtual void on_weight_grad(Tensor& /*grad_w*/) {}

  /// Shared const forward body over a raw [out_c, patch_len] weight:
  /// padded copy → packed GEMM with the patch gather → NCHW (+ bias when
  /// `with_bias`). `panels` is the weight's packed panel set (cache hit or
  /// caller-owned); nullptr packs fresh — bitwise identical either way.
  /// With a context carrying a scratch arena, all scratch is bump-allocated
  /// and the output tensor is recycled.
  Tensor infer_with_weight(const Tensor& x, const float* w, bool with_bias,
                           EvalContext* ctx, const float* panels) const;

  /// wpanels_ lookup for weight_.value.
  const float* cached_panels() const;

  /// Cached packed panels of weight_.value, stamped with its version
  /// counter (DESIGN.md §6). Subclasses substituting an effective weight
  /// bring their own cache.
  mutable gemm::PackedWeightCache wpanels_;

  std::size_t out_c_ = 0;
  ConvGeom geom_;
  bool has_bias_ = true;
  Param weight_;  // [out_c, in_c*k*k]
  Param bias_;    // [out_c]

 private:
  void check_input(const Tensor& x) const;
  /// y = cols·Wᵀ (+ bias) → NCHW, reading cols from `padded`.
  Tensor multiply(const float* padded, std::size_t batch, bool with_bias,
                  EvalContext* ctx, const float* panels) const;

  /// Offset of patch column p = (c, ky, kx) from its receptive field's
  /// origin in the padded input: c·hp·wp + ky·wp + kx.
  std::vector<std::size_t> taps_;
  Tensor cached_padded_;  // [N, in_c, in_h + 2·pad, in_w + 2·pad]
  // Borrowed from persistent layer storage (see Linear::cached_eff_weight_).
  const Tensor* cached_eff_weight_ = nullptr;
  std::size_t cached_batch_ = 0;
};

}  // namespace gbo::nn
