#include "nn/activations.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/cpu.hpp"

#if defined(GBO_X86)
#include <immintrin.h>
#endif

namespace gbo::nn {
namespace {

void tanh_scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

constexpr TanhKernel kScalarTanh{"scalar", &tanh_scalar};

#if defined(GBO_X86)

// glibc's tanhf and the expm1f it calls (fdlibm, sysdeps/ieee754/flt-32),
// 16 lanes at a time: the same float operations in the same order, every
// branch of expm1f's reduction count k computed and blended by mask, and a
// true division wherever the C code divides. Contraction is off in the
// source itself, since a fused multiply-add rounds once where libm rounds
// twice and every -march=native build of this file would fuse the pairs.
#if defined(__clang__)
#define GBO_TANH_AVX512 __attribute__((target("avx512f")))
#define GBO_NO_CONTRACT _Pragma("clang fp contract(off)")
#else
#define GBO_TANH_AVX512 \
  __attribute__((target("avx512f"), optimize("fp-contract=off")))
#define GBO_NO_CONTRACT
#endif

// GCC 12's AVX-512 intrinsic headers seed results with self-initialized
// _mm512_undefined_*() values, a known -W(maybe-)uninitialized false
// positive once they inline here (as in tensor/gemm_binary.cpp).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// fdlibm s_expm1f.c constants, by bit pattern.
constexpr float kLn2Hi = std::bit_cast<float>(0x3f317180u);
constexpr float kLn2Lo = std::bit_cast<float>(0x3717f7d1u);
constexpr float kInvLn2 = std::bit_cast<float>(0x3fb8aa3bu);
constexpr float kQ1 = std::bit_cast<float>(0xbd088889u);
constexpr float kQ2 = std::bit_cast<float>(0x3ad00d01u);
constexpr float kQ3 = std::bit_cast<float>(0xb8a670cdu);
constexpr float kQ4 = std::bit_cast<float>(0x36867e54u);
constexpr float kQ5 = std::bit_cast<float>(0xb457edbbu);
// |x| bit bounds of the lanes the vector path serves: [2^-24, 22).
constexpr int kTinyBits = 0x33800000, kHugeBits = 0x41b00000;

GBO_TANH_AVX512 inline __m512 vf(float v) { return _mm512_set1_ps(v); }
GBO_TANH_AVX512 inline __m512i vi(int v) { return _mm512_set1_epi32(v); }

GBO_TANH_AVX512 inline __m512 add_exponent(__m512 y, __m512i k) {
  return _mm512_castsi512_ps(
      _mm512_add_epi32(_mm512_castps_si512(y), _mm512_slli_epi32(k, 23)));
}

// expm1f(a) where it takes none of its early returns: 2^-25 <= |a| < 88.7
// and a > -27·ln2. tanhf passes |a| in [2^-23, 44) on the vector lanes.
GBO_TANH_AVX512 inline __m512 expm1f16(__m512 a) {
  GBO_NO_CONTRACT
  const __m512i bits = _mm512_castps_si512(a);
  const __m512i hx = _mm512_and_epi32(bits, vi(0x7fffffff));
  const __mmask16 neg = _mm512_cmplt_epi32_mask(bits, _mm512_setzero_si512());
  // k = 0 for |a| <= 0.5·ln2, ±1 below 1.5·ln2, else (int)(invln2·a ± 0.5).
  // The C code's special cases are this formula at t = 0 and t = ±1:
  // hi = a - t·ln2_hi and lo = t·ln2_lo are then exactly its hi and lo.
  const __m512 half = _mm512_mask_blend_ps(neg, vf(0.5f), vf(-0.5f));
  __m512i k = _mm512_cvttps_epi32(
      _mm512_add_ps(_mm512_mul_ps(vf(kInvLn2), a), half));
  k = _mm512_mask_blend_epi32(_mm512_cmplt_epi32_mask(hx, vi(0x3f851592)), k,
                              _mm512_mask_blend_epi32(neg, vi(1), vi(-1)));
  k = _mm512_maskz_mov_epi32(_mm512_cmpgt_epi32_mask(hx, vi(0x3eb17218)), k);
  const __m512 t = _mm512_cvtepi32_ps(k);
  const __m512 hi = _mm512_sub_ps(a, _mm512_mul_ps(t, vf(kLn2Hi)));
  const __m512 lo = _mm512_mul_ps(t, vf(kLn2Lo));
  const __m512 x = _mm512_sub_ps(hi, lo);
  const __m512 c = _mm512_sub_ps(_mm512_sub_ps(hi, x), lo);

  // x is now in the primary range.
  const __m512 hfx = _mm512_mul_ps(vf(0.5f), x);
  const __m512 hxs = _mm512_mul_ps(x, hfx);
  __m512 r1 = _mm512_add_ps(vf(kQ4), _mm512_mul_ps(hxs, vf(kQ5)));
  r1 = _mm512_add_ps(vf(kQ3), _mm512_mul_ps(hxs, r1));
  r1 = _mm512_add_ps(vf(kQ2), _mm512_mul_ps(hxs, r1));
  r1 = _mm512_add_ps(vf(kQ1), _mm512_mul_ps(hxs, r1));
  r1 = _mm512_add_ps(vf(1.0f), _mm512_mul_ps(hxs, r1));
  const __m512 t3 = _mm512_sub_ps(vf(3.0f), _mm512_mul_ps(r1, hfx));
  const __m512 e0 = _mm512_mul_ps(
      hxs, _mm512_div_ps(_mm512_sub_ps(r1, t3),
                         _mm512_sub_ps(vf(6.0f), _mm512_mul_ps(x, t3))));
  // k == 0: x - (x·e - hxs).
  const __m512 r_k0 =
      _mm512_sub_ps(x, _mm512_sub_ps(_mm512_mul_ps(x, e0), hxs));
  const __m512 e = _mm512_sub_ps(
      _mm512_sub_ps(_mm512_mul_ps(x, _mm512_sub_ps(e0, c)), c), hxs);
  const __m512 e_x = _mm512_sub_ps(e, x);
  // k == -1: 0.5·(x - e) - 0.5.
  const __m512 r_km1 = _mm512_sub_ps(
      _mm512_mul_ps(vf(0.5f), _mm512_sub_ps(x, e)), vf(0.5f));
  // k == 1: x < -0.25 ? -2·(e - (x + 0.5)) : 1 + 2·(x - e).
  const __m512 r_k1 = _mm512_mask_blend_ps(
      _mm512_cmp_ps_mask(x, vf(-0.25f), _CMP_LT_OQ),
      _mm512_add_ps(vf(1.0f), _mm512_mul_ps(vf(2.0f), _mm512_sub_ps(x, e))),
      _mm512_mul_ps(vf(-2.0f),
                    _mm512_sub_ps(e, _mm512_add_ps(x, vf(0.5f)))));
  // k <= -2 or k > 56: 2^k·(1 - (e - x)) - 1.
  const __m512 r_far = _mm512_sub_ps(
      add_exponent(_mm512_sub_ps(vf(1.0f), e_x), k), vf(1.0f));
  // 2 <= k < 23: 2^k·((1 - 2^-k) - (e - x)).
  const __m512 one_minus = _mm512_castsi512_ps(_mm512_sub_epi32(
      vi(0x3f800000), _mm512_srlv_epi32(vi(0x1000000), k)));
  const __m512 r_low = add_exponent(_mm512_sub_ps(one_minus, e_x), k);
  // 23 <= k <= 56: 2^k·((x - (e + 2^-k)) + 1).
  const __m512 two_mk = _mm512_castsi512_ps(
      _mm512_slli_epi32(_mm512_sub_epi32(vi(0x7f), k), 23));
  const __m512 r_mid = add_exponent(
      _mm512_add_ps(_mm512_sub_ps(x, _mm512_add_ps(e, two_mk)), vf(1.0f)),
      k);

  __m512 r = r_low;
  r = _mm512_mask_mov_ps(r, _mm512_cmpge_epi32_mask(k, vi(23)), r_mid);
  r = _mm512_mask_mov_ps(
      r,
      _mm512_cmpgt_epi32_mask(k, vi(56)) |
          _mm512_cmple_epi32_mask(k, vi(-2)),
      r_far);
  r = _mm512_mask_mov_ps(r, _mm512_cmpeq_epi32_mask(k, vi(1)), r_k1);
  r = _mm512_mask_mov_ps(r, _mm512_cmpeq_epi32_mask(k, vi(-1)), r_km1);
  return _mm512_mask_mov_ps(r, _mm512_cmpeq_epi32_mask(k, vi(0)), r_k0);
}

// tanhf(v) for 2^-24 <= |v| < 22: z = 1 - 2/(t + 2) with t = expm1f(2|v|)
// for |v| >= 1, else z = -t/(t + 2) with t = expm1f(-2|v|); sign of v.
GBO_TANH_AVX512 inline __m512 tanhf16(__m512 v) {
  GBO_NO_CONTRACT
  const __m512i sign =
      _mm512_and_epi32(_mm512_castps_si512(v), vi(INT32_MIN));
  const __m512 ax = _mm512_castsi512_ps(
      _mm512_andnot_epi32(vi(INT32_MIN), _mm512_castps_si512(v)));
  const __mmask16 ge1 = _mm512_cmp_ps_mask(ax, vf(1.0f), _CMP_GE_OQ);
  const __m512 a = _mm512_mask_blend_ps(ge1, _mm512_mul_ps(vf(-2.0f), ax),
                                        _mm512_mul_ps(vf(2.0f), ax));
  const __m512 t = expm1f16(a);
  const __m512 neg_t = _mm512_castsi512_ps(
      _mm512_xor_epi32(_mm512_castps_si512(t), vi(INT32_MIN)));
  const __m512 q =
      _mm512_div_ps(_mm512_mask_blend_ps(ge1, neg_t, vf(2.0f)),
                    _mm512_add_ps(t, vf(2.0f)));
  const __m512 z = _mm512_mask_sub_ps(q, ge1, vf(1.0f), q);
  return _mm512_castsi512_ps(
      _mm512_xor_epi32(_mm512_castps_si512(z), sign));
}

GBO_TANH_AVX512 void tanh_avx512(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(x + i);
    const __m512i ax =
        _mm512_and_epi32(_mm512_castps_si512(v), vi(0x7fffffff));
    // Lanes off the vector range (|x| < 2^-24, |x| >= 22, inf, NaN) are
    // not stored; libm fills them from the untouched input.
    const __mmask16 off = _mm512_cmplt_epi32_mask(ax, vi(kTinyBits)) |
                          _mm512_cmpge_epi32_mask(ax, vi(kHugeBits));
    _mm512_mask_storeu_ps(y + i, static_cast<__mmask16>(~off), tanhf16(v));
    for (unsigned m = off; m != 0; m &= m - 1) {
      const std::size_t j = i + static_cast<std::size_t>(__builtin_ctz(m));
      y[j] = std::tanh(x[j]);
    }
  }
  tanh_scalar(x + i, y + i, n - i);
}

#pragma GCC diagnostic pop
#undef GBO_TANH_AVX512
#undef GBO_NO_CONTRACT

constexpr TanhKernel kAvx512Tanh{"avx512f", &tanh_avx512};

#endif  // GBO_X86

std::vector<const TanhKernel*> supported_tanh_kernels() {
  std::vector<const TanhKernel*> ks{&kScalarTanh};
#if defined(GBO_X86)
  if (cpu().avx512f) ks.push_back(&kAvx512Tanh);
#endif
  return ks;
}

const TanhKernel& select_tanh_kernel() {
  if (force_scalar_kernels()) return kScalarTanh;
  const auto& ks = tanh_kernels();
  for (auto it = ks.rbegin(); it != ks.rend(); ++it)
    if (tanh_kernel_exact(**it)) return **it;
  return kScalarTanh;
}

// The float d ulps above x in value order (d < 0: below); x >= 0 and the
// walk stays at or above +0.
float ulps_from(float x, int d) {
  return std::bit_cast<float>(
      static_cast<std::uint32_t>(std::bit_cast<std::int32_t>(x) + d));
}

// Elementwise kernels shared by the caching forward and the stateless
// infer paths (so the two are bitwise identical by construction). The infer
// path hands in its context so outputs recycle through the worker arena
// when one is attached; forward passes nullptr (fresh tensor).
Tensor out_like(const Tensor& x, EvalContext* ctx) {
  return ctx ? ctx->make(x.shape()) : Tensor(x.shape());
}

Tensor tanh_map(const Tensor& x, EvalContext* ctx) {
  Tensor out = out_like(x, ctx);
  tanh_kernel().map(x.data(), out.data(), x.numel());
  return out;
}

Tensor relu_map(const Tensor& x, EvalContext* ctx) {
  Tensor out = out_like(x, ctx);
  const float* p = x.data();
  float* q = out.data();
  for (std::size_t i = 0; i < x.numel(); ++i) q[i] = p[i] > 0.0f ? p[i] : 0.0f;
  return out;
}

Tensor hardtanh_map(const Tensor& x, EvalContext* ctx) {
  Tensor out = out_like(x, ctx);
  const float* p = x.data();
  float* q = out.data();
  for (std::size_t i = 0; i < x.numel(); ++i)
    q[i] = p[i] > 1.0f ? 1.0f : (p[i] < -1.0f ? -1.0f : p[i]);
  return out;
}

Tensor flatten_map(const Tensor& x, EvalContext* ctx) {
  std::size_t rest = 1;
  for (std::size_t i = 1; i < x.ndim(); ++i) rest *= x.dim(i);
  if (!ctx) return x.reshaped({x.dim(0), rest});
  Tensor out = ctx->make({x.dim(0), rest});
  std::copy(x.data(), x.data() + x.numel(), out.data());
  return out;
}

}  // namespace

const std::vector<const TanhKernel*>& tanh_kernels() {
  static const std::vector<const TanhKernel*> ks = supported_tanh_kernels();
  return ks;
}

const TanhKernel& tanh_kernel() {
  static const TanhKernel& k = select_tanh_kernel();
  return k;
}

std::vector<float> tanh_branch_points() {
  const double ln2 = std::log(2.0);
  std::vector<float> pts = {0x1p-24f,
                            std::bit_cast<float>(0x3e317218u),  // 0.25·ln2
                            std::bit_cast<float>(0x3f051592u),  // 0.75·ln2
                            1.0f, 22.0f};
  for (int k = 2; k <= 63; ++k)
    for (double h : {-0.5, 0.5})
      pts.push_back(static_cast<float>((k + h) * ln2 / 2));
  return pts;
}

bool tanh_kernel_exact(const TanhKernel& kern) {
  constexpr int kWindow = 64, kSweep = 4096;
  std::vector<float> xs;
  for (float p : tanh_branch_points())
    for (int d = -kWindow; d <= kWindow; ++d) xs.push_back(ulps_from(p, d));
  for (int i = 0; i < kSweep; ++i) {  // ±2^-24 · (22·2^24)^(i/kSweep)
    const double v =
        0x1p-24 * std::pow(22.0 * 0x1p24, static_cast<double>(i) / kSweep);
    xs.push_back(static_cast<float>(i % 2 ? -v : v));
  }
  std::vector<float> got(xs.size());
  kern.map(xs.data(), got.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(std::tanh(xs[i])))
      return false;
  return true;
}

Tensor Tanh::forward(const Tensor& x) {
  Tensor out = tanh_map(x, nullptr);
  cached_output_ = out;
  return out;
}

Tensor Tanh::infer(const Tensor& x, EvalContext& ctx) const {
  return tanh_map(x, &ctx);
}

Tensor Tanh::backward(const Tensor& grad_out) {
  Tensor::check_same_shape(grad_out, cached_output_, "Tanh::backward");
  Tensor grad(grad_out.shape());
  const float* g = grad_out.data();
  const float* y = cached_output_.data();
  float* o = grad.data();
  for (std::size_t i = 0; i < grad.numel(); ++i) o[i] = g[i] * (1.0f - y[i] * y[i]);
  return grad;
}

Tensor ReLU::forward(const Tensor& x) {
  cached_input_ = x;
  return relu_map(x, nullptr);
}

Tensor ReLU::infer(const Tensor& x, EvalContext& ctx) const {
  return relu_map(x, &ctx);
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor::check_same_shape(grad_out, cached_input_, "ReLU::backward");
  Tensor grad(grad_out.shape());
  const float* g = grad_out.data();
  const float* x = cached_input_.data();
  float* o = grad.data();
  for (std::size_t i = 0; i < grad.numel(); ++i) o[i] = x[i] > 0.0f ? g[i] : 0.0f;
  return grad;
}

Tensor HardTanh::forward(const Tensor& x) {
  cached_input_ = x;
  return hardtanh_map(x, nullptr);
}

Tensor HardTanh::infer(const Tensor& x, EvalContext& ctx) const {
  return hardtanh_map(x, &ctx);
}

Tensor HardTanh::backward(const Tensor& grad_out) {
  Tensor::check_same_shape(grad_out, cached_input_, "HardTanh::backward");
  Tensor grad(grad_out.shape());
  const float* g = grad_out.data();
  const float* x = cached_input_.data();
  float* o = grad.data();
  for (std::size_t i = 0; i < grad.numel(); ++i)
    o[i] = (x[i] > -1.0f && x[i] < 1.0f) ? g[i] : 0.0f;
  return grad;
}

Tensor Flatten::forward(const Tensor& x) {
  cached_shape_ = x.shape();
  return flatten_map(x, nullptr);
}

Tensor Flatten::infer(const Tensor& x, EvalContext& ctx) const {
  return flatten_map(x, &ctx);
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(cached_shape_);
}

}  // namespace gbo::nn
