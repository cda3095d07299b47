#include "quant/quant_layers.hpp"

#include "obs/trace.hpp"
#include "quant/binary_weight.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_binary.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

namespace gbo::quant {
namespace {

/// Hook dispatch shared by both quant layers: per-sample row streams when
/// the context carries them (fused stochastic serving, DESIGN.md §6), the
/// classic single-stream draw otherwise.
void apply_output_hook(const MvmNoiseHook& hook, Tensor& out,
                       gbo::nn::EvalContext& ctx) {
  if (ctx.per_sample())
    hook.infer_output_rows(out, ctx.row_rngs.data(), ctx.row_rngs.size());
  else
    hook.infer_output(out, ctx.rng);
}

/// The digital-scale epilogue (DESIGN.md §8): one elementwise multiply after
/// the unscaled ±1 MVM. Shared verbatim by forward and infer — the multiply
/// is per-element, so the two paths (and the binary/float MVM routes
/// beneath them) stay bitwise equal.
void scale_output(Tensor& out, bool scaled, float scale) {
  if (!scaled) return;
  float* p = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) p[i] *= scale;
}

/// n bytes of scratch from the context's arena, or owned by `own` when
/// the context has none.
std::uint8_t* scratch_bytes(gbo::nn::EvalContext& ctx, std::size_t n,
                            std::unique_ptr<std::uint8_t[]>& own) {
  if (ctx.arena) return ctx.arena->alloc_u8(n);
  own.reset(new std::uint8_t[n]);
  return own.get();
}

}  // namespace

void MvmNoiseHook::infer_output(Tensor& /*out*/, Rng& /*rng*/) const {
  throw std::logic_error(
      "MvmNoiseHook: this hook does not support stateless inference");
}

void MvmNoiseHook::infer_output_rows(Tensor& /*out*/, Rng* /*rngs*/,
                                     std::size_t /*num_streams*/) const {
  throw std::logic_error(
      "MvmNoiseHook: this hook does not support per-sample row streams");
}

bool hooks_support_row_streams(const gbo::nn::Module& m) {
  if (const auto* h = dynamic_cast<const Hookable*>(&m))
    if (h->noise_hook() != nullptr && h->noise_hook()->stochastic() &&
        !h->noise_hook()->supports_row_streams())
      return false;
  for (const gbo::nn::Module* child : m.children())
    if (!hooks_support_row_streams(*child)) return false;
  return true;
}

void BinaryPanelCache::get(const Tensor& latent, bool scaled, std::size_t n,
                           std::size_t k, bool want_panels, const float** bw,
                           const float** panels,
                           const gbo::gemm::PackedBinaryB** bsigns,
                           float* scale, std::size_t taps) const {
  gate_.ensure(latent.version(), [&] {
    bw_.resize(latent.numel());
    // Unscaled ±1 signs: the MVM runs over these (float panels and int8
    // signs alike) and the digital scale is applied as an epilogue, so the
    // level-code route stays bitwise equal to the float route.
    binarize_into(latent, /*scaled=*/false, bw_.data());
    scale_ = scaled ? binarize_scale(latent) : 1.0f;
    if (want_panels) {
      panels_.resize(gemm::packed_b_floats(n, k));
      gemm::pack_b_t(n, k, bw_.data(), k, panels_.data());
    }
    if (taps > 1) {
      const std::size_t ch = k / taps;
      std::vector<float> tap_major(n * k);
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t c = 0; c < ch; ++c)
          for (std::size_t t = 0; t < taps; ++t)
            tap_major[j * k + t * ch + c] = bw_[j * k + c * taps + t];
      bsigns_ = gemm::prepack_binary_b_t(n, k, tap_major.data(), k);
    } else {
      bsigns_ = gemm::prepack_binary_b_t(n, k, bw_.data(), k);
    }
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
  });
  *bw = bw_.data();
  *panels = want_panels ? panels_.data() : nullptr;
  *bsigns = &bsigns_;
  *scale = scale_;
}

QuantConv2d::QuantConv2d(std::size_t out_channels, gbo::ConvGeom geom, Rng& rng,
                         bool scaled)
    : Conv2d(out_channels, geom, /*bias=*/false, rng), scaled_(scaled) {}

const Tensor& QuantConv2d::effective_weight() {
  weight_scale_ = scaled_ ? binarize_scale(weight_.value) : 1.0f;
  binary_weight_ = binarize(weight_.value, /*scaled=*/false);
  return binary_weight_;
}

void QuantConv2d::on_weight_grad(Tensor& grad_w) {
  ste_clip_grad(weight_.value, grad_w);
}

Tensor QuantConv2d::forward(const Tensor& x) {
  Tensor out;
  if (hook_) {
    Tensor xin = x;
    hook_->on_input(xin);
    out = Conv2d::forward(xin);
    scale_output(out, scaled_, weight_scale_);
    hook_->on_forward(out);
  } else {
    out = Conv2d::forward(x);
    scale_output(out, scaled_, weight_scale_);
  }
  return out;
}

Tensor QuantConv2d::backward(const Tensor& grad_out) {
  if (hook_) hook_->on_backward(grad_out);
  // Base backward computes dW from the raw grad (the STE convention: the
  // latent weight's gradient is taken w.r.t. the stored ±1 matrix, exactly
  // as when the scale was folded into the effective weight) and dX over the
  // ±1 signs; the epilogue's scale factor then lands on dX.
  Tensor dx = Conv2d::backward(grad_out);
  scale_output(dx, scaled_, weight_scale_);
  return dx;
}

Tensor QuantConv2d::infer_mvm(const Tensor& x, gbo::nn::EvalContext& ctx,
                              const float* bw, const float* panels,
                              const gbo::gemm::PackedBinaryB& bsigns) const {
  // Level-code route (DESIGN.md §8): every patch value is either an input
  // element or zero padding (level 4), so one validating pass over the NCHW
  // input turns it into level codes and the patches are gathered from those
  // bytes — each element is checked once, not once per patch. The patches
  // use the tap-major lane order the cache packed the signs in, and the
  // kernel stores its output straight into NCHW. Off-grid inputs (the
  // raw-image stem, non-dyadic PLA) take the float panel route — bitwise
  // equal for on-grid data, so the dispatch can never change an output bit.
  if (x.ndim() == 4 && x.dim(1) == geom_.in_c && x.dim(2) == geom_.in_h &&
      x.dim(3) == geom_.in_w && !bsigns.empty()) {
    const std::size_t batch = x.dim(0);
    const std::size_t oh = geom_.out_h(), ow = geom_.out_w();
    const std::size_t m = batch * oh * ow;
    const std::size_t k = geom_.patch_len();
    gbo::ArenaFrame frame(ctx.arena);
    // The validating pass decides the route before anything else is
    // allocated (an off-grid input usually fails in its first chunk).
    std::unique_ptr<std::uint8_t[]> codes_own;
    std::uint8_t* codes = scratch_bytes(ctx, x.numel(), codes_own);
    if (gemm::binary_grid_codes(x.data(), x.numel(), codes)) {
      // The padded NHWC copy and the patch codes share one byte buffer.
      const std::size_t hwc = gbo::padded_hwc_bytes(batch, geom_);
      std::unique_ptr<std::uint8_t[]> bytes_own;
      std::uint8_t* bytes = scratch_bytes(ctx, hwc + m * k, bytes_own);
      {
        GBO_TRACE_SPAN(obs::EventType::kBinaryPack, m,
                       static_cast<std::uint16_t>(k < 65535 ? k : 65535),
                       m * k);
        constexpr std::uint8_t kZeroLevel = 4;  // 0.0f = (2·4 - 8) / 8
        gbo::im2col_codes_into(codes, batch, geom_, kZeroLevel, bytes,
                               bytes + hwc);
      }
      Tensor out = ctx.make({batch, out_c_, oh, ow});
      gemm::gemm_binary(m, bytes + hwc, k, bsigns,
                        gemm::BinaryOut::nchw(out.data(), out_c_, oh * ow));
      return out;
    }
  }
  return infer_with_weight(x, bw, /*with_bias=*/false, &ctx, panels);
}

Tensor QuantConv2d::infer(const Tensor& x, gbo::nn::EvalContext& ctx) const {
  // Frozen-weight cache (DESIGN.md §6): the binarized copy, its packed
  // float panels, and its packed int8 signs are rebuilt only when
  // the latent weight's version moves, so steady-state serving neither
  // re-binarizes nor re-packs. Binarization and packing are deterministic,
  // so a cache hit is bitwise identical to the fresh path (and to
  // forward()).
  const float* bw;
  const float* panels;
  const gemm::PackedBinaryB* bsigns;
  float scale;
  cache_.get(weight_.value, scaled_, out_c_, geom_.patch_len(),
             /*want_panels=*/true, &bw, &panels, &bsigns, &scale,
             /*taps=*/geom_.k * geom_.k);
  if (!hook_) {
    Tensor out = infer_mvm(x, ctx, bw, panels, *bsigns);
    scale_output(out, scaled_, scale);
    return out;
  }
  gbo::ArenaFrame frame(ctx.arena);
  Tensor xin = ctx.make(x.shape());
  std::copy(x.data(), x.data() + x.numel(), xin.data());
  hook_->infer_input(xin, ctx.rng);
  Tensor out = infer_mvm(xin, ctx, bw, panels, *bsigns);
  ctx.recycle(std::move(xin));
  scale_output(out, scaled_, scale);
  apply_output_hook(*hook_, out, ctx);
  return out;
}

QuantLinear::QuantLinear(std::size_t in_features, std::size_t out_features,
                         Rng& rng, bool scaled)
    : Linear(in_features, out_features, /*bias=*/false, rng), scaled_(scaled) {}

const Tensor& QuantLinear::effective_weight() {
  weight_scale_ = scaled_ ? binarize_scale(weight_.value) : 1.0f;
  binary_weight_ = binarize(weight_.value, /*scaled=*/false);
  return binary_weight_;
}

void QuantLinear::on_weight_grad(Tensor& grad_w) {
  ste_clip_grad(weight_.value, grad_w);
}

Tensor QuantLinear::forward(const Tensor& x) {
  Tensor out;
  if (hook_) {
    Tensor xin = x;
    hook_->on_input(xin);
    out = Linear::forward(xin);
    scale_output(out, scaled_, weight_scale_);
    hook_->on_forward(out);
  } else {
    out = Linear::forward(x);
    scale_output(out, scaled_, weight_scale_);
  }
  return out;
}

Tensor QuantLinear::backward(const Tensor& grad_out) {
  if (hook_) hook_->on_backward(grad_out);
  // dW stays unscaled (STE over the stored signs, see QuantConv2d); the
  // epilogue's scale lands on dX.
  Tensor dx = Linear::backward(grad_out);
  scale_output(dx, scaled_, weight_scale_);
  return dx;
}

Tensor QuantLinear::infer_mvm(const Tensor& x, gbo::nn::EvalContext& ctx,
                              const float* bw, const float* panels,
                              const gbo::gemm::PackedBinaryB& bsigns) const {
  // Level-code route (DESIGN.md §8): the activation matrix, validated into
  // level codes, IS the A operand; an off-grid value aborts the pass and
  // falls back to the float route.
  if (x.ndim() == 2 && x.dim(1) == in_ && !bsigns.empty()) {
    const std::size_t batch = x.dim(0);
    gbo::ArenaFrame frame(ctx.arena);
    std::unique_ptr<std::uint8_t[]> codes_own;
    std::uint8_t* codes = scratch_bytes(ctx, x.numel(), codes_own);
    bool on_grid;
    {
      GBO_TRACE_SPAN(obs::EventType::kBinaryPack, batch,
                     static_cast<std::uint16_t>(in_ < 65535 ? in_ : 65535),
                     x.numel());
      on_grid = gemm::binary_grid_codes(x.data(), x.numel(), codes);
    }
    if (on_grid) {
      Tensor y = ctx.make({batch, out_});
      gemm::gemm_binary(batch, codes, in_, bsigns,
                        gemm::BinaryOut::rows(y.data(), out_));
      return y;
    }
  }
  return infer_with_weight(x, bw, /*with_bias=*/false, &ctx, panels);
}

Tensor QuantLinear::infer(const Tensor& x, gbo::nn::EvalContext& ctx) const {
  // Same frozen-weight cache as QuantConv2d::infer; float panels only for
  // the shapes the layer's dispatch rule would pack.
  const float* bw;
  const float* panels;
  const gemm::PackedBinaryB* bsigns;
  float scale;
  cache_.get(weight_.value, scaled_, out_, in_,
             gemm::panels_for_weight(out_, in_), &bw, &panels, &bsigns,
             &scale);
  if (!hook_) {
    Tensor out = infer_mvm(x, ctx, bw, panels, *bsigns);
    scale_output(out, scaled_, scale);
    return out;
  }
  gbo::ArenaFrame frame(ctx.arena);
  Tensor xin = ctx.make(x.shape());
  std::copy(x.data(), x.data() + x.numel(), xin.data());
  hook_->infer_input(xin, ctx.rng);
  Tensor out = infer_mvm(xin, ctx, bw, panels, *bsigns);
  ctx.recycle(std::move(xin));
  scale_output(out, scaled_, scale);
  apply_output_hook(*hook_, out, ctx);
  return out;
}

}  // namespace gbo::quant
