#include "nn/conv2d.hpp"

#include "common/thread_pool.hpp"
#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

namespace gbo::nn {
namespace {

constexpr std::size_t MR = gemm::kMR;
constexpr std::size_t NR = gemm::kNR;

std::size_t padded_h(const ConvGeom& g) { return g.in_h + 2 * g.pad; }
std::size_t padded_w(const ConvGeom& g) { return g.in_w + 2 * g.pad; }

/// Zero-padded copy [N, C, H + 2·pad, W + 2·pad] of an NCHW input: every
/// element is written, so the destination may be uninitialized scratch.
void pad_input(const float* x, std::size_t batch, const ConvGeom& g,
               float* dst) {
  const std::size_t H = g.in_h, W = g.in_w, pad = g.pad;
  const std::size_t hp = padded_h(g), wp = padded_w(g);
  // Each channel plane is a disjoint write: thread freely.
  parallel_for(0, batch * g.in_c, 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t q = lo; q < hi; ++q) {
      float* d = dst + q * hp * wp;
      const float* s = x + q * H * W;
      std::fill(d, d + pad * wp, 0.0f);
      for (std::size_t y = 0; y < H; ++y) {
        float* row = d + (y + pad) * wp;
        std::fill(row, row + pad, 0.0f);
        std::memcpy(row + pad, s + y * W, W * sizeof(float));
        std::fill(row + pad + W, row + wp, 0.0f);
      }
      std::fill(d + (H + pad) * wp, d + hp * wp, 0.0f);
    }
  });
}

/// The one patch gather, as a gemm A-panel packer. Element (r, p) of the
/// patch matrix cols is padded[origin(r) + taps[p]], where output row
/// r = (n, oy, ox) has its receptive field at origin(r). `by_pixel` selects
/// the orientation: A = cols (rows are output pixels, K runs over patch
/// columns; the forward product) or A = colsᵀ (rows are patch columns, K
/// runs over output pixels; the weight gradient). Either way each panel
/// element is one load — exactly the value im2col would have written,
/// zero padding included — stored contiguously into the MR-row strip.
struct PatchGather {
  const float* padded;
  const std::size_t* taps;
  std::size_t ohw, ow, row_step, col_step, img_step;
  bool by_pixel;

  std::size_t origin(std::size_t r) const {
    const std::size_t n = r / ohw, rem = r % ohw;
    return n * img_step + (rem / ow) * row_step + (rem % ow) * col_step;
  }
  std::size_t row_offset(std::size_t i) const {
    return by_pixel ? origin(i) : taps[i];
  }

  void operator()(std::size_t i0, std::size_t i1, std::size_t pc,
                  std::size_t kc, float* dst) const {
    std::size_t koff[gemm::kKC];
    for (std::size_t p = 0; p < kc; ++p)
      koff[p] = by_pixel ? taps[pc + p] : origin(pc + p);
    for (std::size_t i = i0; i < i1; i += MR) {
      const std::size_t mr = i + MR < i1 ? MR : i1 - i;
      float* strip = dst + (i - i0) * kc;
      // A ragged strip re-reads its first row; the rows are zeroed below.
      const float* row[MR];
      for (std::size_t r = 0; r < MR; ++r)
        row[r] = padded + row_offset(i + (r < mr ? r : 0));
      for (std::size_t p = 0; p < kc; ++p)
        for (std::size_t r = 0; r < MR; ++r)
          strip[p * MR + r] = row[r][koff[p]];
      for (std::size_t p = 0; p < kc && mr < MR; ++p)
        for (std::size_t r = mr; r < MR; ++r) strip[p * MR + r] = 0.0f;
    }
  }
};

PatchGather make_gather(const float* padded, const std::size_t* taps,
                        const ConvGeom& g, bool by_pixel) {
  const std::size_t wp = padded_w(g);
  return PatchGather{padded,
                     taps,
                     g.out_h() * g.out_w(),
                     g.out_w(),
                     g.stride * wp,
                     g.stride,
                     g.in_c * padded_h(g) * wp,
                     by_pixel};
}

/// Packs grad_out [N, out_c, ohw] as the weight-gradient product's B
/// operand B[r, o] (r = n·ohw + pixel, K = N·ohw rows, out_c columns) in
/// pack_b's layout: one pass straight from NCHW, reading each channel's
/// pixels contiguously down one strip column.
void pack_grad_rows(const float* g, std::size_t batch, std::size_t out_c,
                    std::size_t ohw, float* dst) {
  const std::size_t m = batch * ohw;
  const std::size_t n_round = (out_c + NR - 1) / NR * NR;
  parallel_for(0, n_round / NR, 1, [&](std::size_t slo, std::size_t shi) {
    for (std::size_t s = slo; s < shi; ++s) {
      for (std::size_t pc = 0; pc < m; pc += gemm::kKC) {
        const std::size_t kc = std::min(gemm::kKC, m - pc);
        float* strip = dst + pc * n_round + s * NR * kc;
        for (std::size_t jj = 0; jj < NR; ++jj) {
          const std::size_t o = s * NR + jj;
          if (o >= out_c) {
            for (std::size_t p = 0; p < kc; ++p) strip[p * NR + jj] = 0.0f;
            continue;
          }
          // Walk rows [pc, pc + kc) image by image: contiguous pixel runs.
          for (std::size_t p = 0; p < kc;) {
            const std::size_t n = (pc + p) / ohw, rem = (pc + p) % ohw;
            const std::size_t run = std::min(kc - p, ohw - rem);
            const float* src = g + (n * out_c + o) * ohw + rem;
            for (std::size_t t = 0; t < run; ++t)
              strip[(p + t) * NR + jj] = src[t];
            p += run;
          }
        }
      }
    }
  });
}

/// Output positions [lo, hi) along one axis whose kernel tap `kpos` lands
/// inside the unpadded input: 0 ≤ o·stride + kpos − pad < in.
std::pair<std::size_t, std::size_t> tap_range(std::size_t kpos,
                                              std::size_t in, std::size_t out,
                                              std::size_t stride,
                                              std::size_t pad) {
  const std::size_t lo = kpos >= pad ? 0 : (pad - kpos + stride - 1) / stride;
  if (in + pad <= kpos) return {0, 0};
  const std::size_t hi = std::min(out, (in + pad - kpos - 1) / stride + 1);
  return {lo, std::max(lo, hi)};
}

/// Floats of Gᵀ one dgrad GEMM call produces: images share a call up to
/// this budget (512 KiB, well inside a 2 MiB L2), so the tap adds read Gᵀ
/// from cache, and a small-image layer makes a few calls per backward
/// rather than one per image.
constexpr std::size_t kDgradChunkFloats = std::size_t{1} << 17;

/// Packs grad_out of images [n0, n0 + count) as the dgrad product's B
/// operand B[o, j] (out_c rows; column j = (n − n0)·ohw + pixel) in
/// pack_b's layout, straight from NCHW.
void pack_grad_cols(const float* g, std::size_t n0, std::size_t count,
                    std::size_t out_c, std::size_t ohw, float* dst) {
  const std::size_t n = count * ohw;
  const std::size_t n_round = (n + NR - 1) / NR * NR;
  parallel_for(0, n_round / NR, 1, [&](std::size_t slo, std::size_t shi) {
    for (std::size_t j0 = slo * NR; j0 < shi * NR; j0 += NR) {
      std::size_t base[NR];  // column j0 + jj reads g[base[jj] + o·ohw]
      for (std::size_t jj = 0; jj < NR; ++jj) {
        const std::size_t j = j0 + jj < n ? j0 + jj : 0;
        base[jj] = (n0 + j / ohw) * out_c * ohw + j % ohw;
      }
      const std::size_t nr = std::min(NR, n - j0);
      for (std::size_t pc = 0; pc < out_c; pc += gemm::kKC) {
        const std::size_t kc = std::min(gemm::kKC, out_c - pc);
        float* strip = dst + pc * n_round + j0 * kc;
        for (std::size_t p = 0; p < kc; ++p) {
          const float* src = g + (pc + p) * ohw;
          float* row = strip + p * NR;
          for (std::size_t jj = 0; jj < nr; ++jj) row[jj] = src[base[jj]];
          for (std::size_t jj = nr; jj < NR; ++jj) row[jj] = 0.0f;
        }
      }
    }
  });
}

/// dX of one image from its Gᵀ = Wᵀ·grad_outₙ [patch_len, oh·ow] (row
/// stride `ld`): each tap row of Gᵀ is added into the input pixels that
/// tap read, as contiguous row adds (strided for stride > 1). Taps run in
/// descending order: col2im's row-ascending scatter reaches each input
/// pixel through a larger oy/ox — hence a smaller ky/kx — on every later
/// row, so this is exactly the order it added that pixel's contributions
/// in, starting from +0.
void add_taps(const float* gt, std::size_t ld, const ConvGeom& g,
              float* dx) {
  const std::size_t H = g.in_h, W = g.in_w, k = g.k, s = g.stride;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  for (std::size_t c = 0; c < g.in_c; ++c) {
    float* plane = dx + c * H * W;
    for (std::size_t t = k * k; t-- > 0;) {
      const std::size_t ky = t / k, kx = t % k;
      const float* grow = gt + (c * k * k + t) * ld;
      const auto [oy0, oy1] = tap_range(ky, H, oh, s, g.pad);
      const auto [ox0, ox1] = tap_range(kx, W, ow, s, g.pad);
      for (std::size_t oy = oy0; oy < oy1; ++oy) {
        float* drow = plane + (oy * s + ky - g.pad) * W + ox0 * s + kx - g.pad;
        const float* srow = grow + oy * ow + ox0;
        for (std::size_t i = 0; i < ox1 - ox0; ++i) drow[i * s] += srow[i];
      }
    }
  }
}

}  // namespace

Conv2d::Conv2d(std::size_t out_channels, ConvGeom geom, bool bias, Rng& rng)
    : out_c_(out_channels), geom_(geom), has_bias_(bias) {
  Tensor w({out_c_, geom_.patch_len()});
  xavier_uniform(w, geom_.patch_len(), out_c_, rng);
  weight_ = Param("weight", std::move(w));
  if (has_bias_) bias_ = Param("bias", Tensor({out_c_}));
  const std::size_t hp = padded_h(geom_), wp = padded_w(geom_);
  taps_.reserve(geom_.patch_len());
  for (std::size_t c = 0; c < geom_.in_c; ++c)
    for (std::size_t ky = 0; ky < geom_.k; ++ky)
      for (std::size_t kx = 0; kx < geom_.k; ++kx)
        taps_.push_back(c * hp * wp + ky * wp + kx);
}

const Tensor& Conv2d::effective_weight() { return weight_.value; }

const float* Conv2d::cached_panels() const {
  const std::size_t k = geom_.patch_len();
  return wpanels_.get(std::as_const(weight_.value).data(), k, out_c_, k,
                      /*transposed=*/true, weight_.value.version());
}

void Conv2d::check_input(const Tensor& x) const {
  if (x.ndim() != 4 || x.dim(1) != geom_.in_c || x.dim(2) != geom_.in_h ||
      x.dim(3) != geom_.in_w)
    throw std::invalid_argument("Conv2d: input " + x.shape_str() +
                                " does not match the layer geometry");
}

Tensor Conv2d::multiply(const float* padded, std::size_t batch,
                        bool with_bias, EvalContext* ctx,
                        const float* panels) const {
  const std::size_t oh = geom_.out_h(), ow = geom_.out_w();
  const std::size_t m = batch * oh * ow;
  const std::size_t k = geom_.patch_len();
  Tensor rows_own;  // fallback owner without an arena
  float* rows;
  if (ctx && ctx->arena) {
    rows = ctx->arena->alloc_floats(m * out_c_);
  } else {
    rows_own = Tensor({m, out_c_});
    rows = rows_own.data();
  }
  gemm::gemm_prepacked_b(
      m, out_c_, k, make_gather(padded, taps_.data(), geom_, /*by_pixel=*/true),
      panels, rows, out_c_, /*accumulate=*/false);
  if (with_bias) {
    const float* b = bias_.value.data();
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t c = 0; c < out_c_; ++c) rows[r * out_c_ + c] += b[c];
  }
  Tensor out = ctx ? ctx->make({batch, out_c_, oh, ow})
                   : Tensor({batch, out_c_, oh, ow});
  rows_to_nchw_into(rows, batch, out_c_, oh, ow, out.data());
  return out;
}

Tensor Conv2d::infer_with_weight(const Tensor& x, const float* w,
                                 bool with_bias, EvalContext* ctx,
                                 const float* panels) const {
  check_input(x);
  const std::size_t batch = x.dim(0);
  const std::size_t k = geom_.patch_len();
  const std::size_t padded_floats =
      batch * geom_.in_c * padded_h(geom_) * padded_w(geom_);
  ScratchArena* arena = ctx ? ctx->arena : nullptr;
  ArenaFrame frame(arena);
  std::vector<float> pack_own, padded_own;  // fallback owners
  if (panels == nullptr)
    // Uncached caller (a subclass forward over a transient effective
    // weight): pack fresh, off the heap when an arena is attached.
    panels = gemm::pack_fresh_b_t(out_c_, k, w, k, arena, &pack_own);
  float* padded;
  if (arena) {
    padded = arena->alloc_floats(padded_floats);
  } else {
    padded_own.resize(padded_floats);
    padded = padded_own.data();
  }
  pad_input(x.data(), batch, geom_, padded);
  return multiply(padded, batch, with_bias, ctx, panels);
}

Tensor Conv2d::forward(const Tensor& x) {
  check_input(x);
  cached_batch_ = x.dim(0);
  const std::vector<std::size_t> padded_shape{
      cached_batch_, geom_.in_c, padded_h(geom_), padded_w(geom_)};
  if (cached_padded_.shape() != padded_shape)
    cached_padded_ = Tensor(padded_shape);
  pad_input(x.data(), cached_batch_, geom_, cached_padded_.data());
  cached_eff_weight_ = &effective_weight();
  const std::size_t k = geom_.patch_len();
  // The training path runs the same packed kernel as infer (so
  // infer == forward stays bitwise), reusing the cached panels whenever the
  // effective weight is weight_.value itself; a substituted effective
  // weight (fresh binarization per forward) packs fresh.
  std::vector<float> pack_own;
  const float* panels =
      cached_eff_weight_ == &weight_.value
          ? cached_panels()
          : gemm::pack_fresh_b_t(out_c_, k, cached_eff_weight_->data(), k,
                                 nullptr, &pack_own);
  return multiply(cached_padded_.data(), cached_batch_, has_bias_, nullptr,
                  panels);
}

Tensor Conv2d::infer(const Tensor& x, EvalContext& ctx) const {
  return infer_with_weight(x, std::as_const(weight_.value).data(), has_bias_,
                           &ctx, cached_panels());
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const std::size_t batch = cached_batch_;
  const std::size_t oh = geom_.out_h(), ow = geom_.out_w(), ohw = oh * ow;
  if (grad_out.ndim() != 4 || grad_out.dim(0) != batch ||
      grad_out.dim(1) != out_c_ || grad_out.dim(2) != oh ||
      grad_out.dim(3) != ow)
    throw std::invalid_argument("Conv2d::backward: bad grad shape " +
                                grad_out.shape_str());
  const std::size_t m = batch * ohw;
  const std::size_t k = geom_.patch_len();
  const float* g = grad_out.data();

  // dW = grad_rowsᵀ·cols, computed as dWᵀ = colsᵀ·grad_rows [k, out_c]: the
  // patch gather packs the A panels (threaded over patch-column slabs) and
  // grad_out is packed once as B. Each element is the same r-ascending
  // chain as the untransposed product — the multiplicands are swapped,
  // which IEEE multiplication does not see.
  Tensor grad_w({out_c_, k});
  {
    std::vector<float> pb(gemm::packed_b_floats(out_c_, m));
    pack_grad_rows(g, batch, out_c_, ohw, pb.data());
    std::vector<float> grad_wt(k * out_c_);
    gemm::gemm_prepacked_b(
        k, out_c_, m,
        make_gather(cached_padded_.data(), taps_.data(), geom_,
                    /*by_pixel=*/false),
        pb.data(), grad_wt.data(), out_c_, /*accumulate=*/false);
    float* gw = grad_w.data();
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t o = 0; o < out_c_; ++o)
        gw[o * k + p] = grad_wt[p * out_c_ + o];
  }
  on_weight_grad(grad_w);
  if (weight_.requires_grad) ops::add_inplace(weight_.grad, grad_w);

  if (has_bias_ && bias_.requires_grad) {
    // Pixel-ascending per channel, the order of a row-major [m, out_c] sum.
    float* gb = bias_.grad.data();
    for (std::size_t n = 0; n < batch; ++n)
      for (std::size_t c = 0; c < out_c_; ++c) {
        const float* plane = g + (n * out_c_ + c) * ohw;
        for (std::size_t i = 0; i < ohw; ++i) gb[c] += plane[i];
      }
  }

  // dX: per image Gᵀ = Wᵀ·grad_outₙ [k, oh·ow] — the same o-ascending chain
  // per element as grad_rows·W, multiplicands swapped — then the tap adds.
  // Images share a GEMM call up to the Gᵀ budget; the calls cannot change
  // a bit, since every Gᵀ element is its own chain.
  const float* w = cached_eff_weight_->data();
  std::vector<float> wt(k * out_c_);
  for (std::size_t o = 0; o < out_c_; ++o)
    for (std::size_t p = 0; p < k; ++p) wt[p * out_c_ + o] = w[o * k + p];
  Tensor dx({batch, geom_.in_c, geom_.in_h, geom_.in_w});
  const std::size_t chw = geom_.in_c * geom_.in_h * geom_.in_w;
  const std::size_t chunk = std::max<std::size_t>(
      1, std::min(kDgradChunkFloats / (k * ohw), batch));
  std::vector<float> pb(gemm::packed_b_floats(chunk * ohw, out_c_));
  std::vector<float> gt(k * chunk * ohw);
  for (std::size_t n0 = 0; n0 < batch; n0 += chunk) {
    const std::size_t count = std::min(chunk, batch - n0);
    const std::size_t cols = count * ohw;
    pack_grad_cols(g, n0, count, out_c_, ohw, pb.data());
    gemm::gemm_prepacked(k, cols, out_c_, wt.data(), out_c_, pb.data(),
                         gt.data(), cols);
    parallel_for(0, count, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        add_taps(gt.data() + i * ohw, cols, geom_,
                 dx.data() + (n0 + i) * chw);
    });
  }
  return dx;
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

}  // namespace gbo::nn
