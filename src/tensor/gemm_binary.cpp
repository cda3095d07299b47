#include "tensor/gemm_binary.hpp"

#include "common/cpu.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(GBO_X86)
#include <immintrin.h>
#endif

#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace gbo::gemm {
namespace {

std::atomic<std::uint64_t> g_binary_packs{0};
std::atomic<std::uint64_t> g_binary_mvms{0};

// ---- registry kernels ----------------------------------------------------
//
// Every kernel computes the same value — the total popcount of a XOR w over
// kBinaryPlanes planes — as a sum of per-word integer popcounts, which is
// associative and overflow-free (P <= 8·k <= 2^40 for any realistic k), so
// the variants are bitwise interchangeable by construction.

std::uint64_t xp1_scalar(const std::uint64_t* a, const std::uint64_t* w,
                         std::size_t kw) {
  std::uint64_t p = 0;
  for (std::size_t t = 0; t < kBinaryPlanes; ++t) {
    const std::uint64_t* at = a + t * kw;
    for (std::size_t i = 0; i < kw; ++i)
      p += static_cast<std::uint64_t>(std::popcount(at[i] ^ w[i]));
  }
  return p;
}

void xpr_scalar(const std::uint64_t* a, const std::uint64_t* W, std::size_t n,
                std::size_t kw, std::uint64_t* pops) {
  for (std::size_t j = 0; j < n; ++j) pops[j] = xp1_scalar(a, W + j * kw, kw);
}

// ---- A-side encoders -----------------------------------------------------
//
// The encode is two steps, each working in 64-lane chunks: grid_codes
// evaluates grid_level's exact predicate per lane and turns the chunk into
// level codes 0..8; encode_codes_row emits plane t of a chunk, one word, as
// the lane mask of (level > t). Lanes past the row end read as level 0
// (code 0), so padding bits stay zero.

/// Level 0..8 of an on-grid value, -1 otherwise. (x + 1)·4 alone is not a
/// sufficient test: the addition ROUNDS, so a tiny off-grid value (e.g.
/// 1e-8) lands on an integer — the reconstruction comparison is what makes
/// the test exact (grid values round-trip exactly; NaN fails the range
/// comparison). The SIMD encoders evaluate these same comparisons per lane.
int grid_level(float x) {
  const float lf = (x + 1.0f) * 4.0f;
  if (!(lf >= 0.0f && lf <= 8.0f)) return -1;
  const int lvl = static_cast<int>(lf);
  if (static_cast<float>(lvl) != lf) return -1;
  if (static_cast<float>(lvl) * 0.25f - 1.0f != x) return -1;
  return lvl;
}

bool grid_codes_scalar(const float* x, std::size_t n, std::uint8_t* codes) {
  for (std::size_t i = 0; i < n; ++i) {
    const int lvl = grid_level(x[i]);
    if (lvl < 0) return false;
    codes[i] = static_cast<std::uint8_t>(lvl);
  }
  return true;
}

/// Plane words of one chunk of `len` (<= 64) codes, accumulated in
/// registers and stored once each at planes[t·kw].
void planes64_scalar(const std::uint8_t* c, std::size_t len,
                     std::uint64_t* planes, std::size_t kw) {
  std::uint64_t pl[kBinaryPlanes] = {0};
  for (std::size_t i = 0; i < len; ++i)
    for (unsigned t = 0; t < c[i]; ++t) pl[t] |= 1ull << i;
  for (std::size_t t = 0; t < kBinaryPlanes; ++t) planes[t * kw] = pl[t];
}

void encode_codes_row_scalar(const std::uint8_t* c, std::size_t k,
                             std::uint64_t* planes, std::size_t ldp) {
  for (std::size_t w = 0; w < binary_words(k); ++w)
    planes64_scalar(c + w * 64, std::min<std::size_t>(64, k - w * 64),
                    planes + w, ldp);
}

#if defined(GBO_X86)

// GCC 12's AVX-512 intrinsic headers seed results with self-initialized
// _mm512_undefined_*() values, a known -Wmaybe-uninitialized false positive
// once they inline here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// AVX2 has no vector popcount; the classic vpshufb nibble LUT counts bits in
// each byte, then _mm256_sad_epu8 horizontally folds bytes into four 64-bit
// lanes per 256-bit chunk.
__attribute__((target("avx2"))) inline __m256i popcnt256(__m256i x) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(x, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline std::uint64_t hsum256(__m256i acc) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                  _mm256_extracti128_si256(acc, 1));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
         static_cast<std::uint64_t>(
             _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
}

__attribute__((target("avx2"))) void xpr_avx2(const std::uint64_t* a,
                                              const std::uint64_t* W,
                                              std::size_t n, std::size_t kw,
                                              std::uint64_t* pops) {
  if (kw <= 4) {
    // Hot path (k <= 256): all 8 activation planes live in YMM registers
    // across the whole weight panel; each weight row is one masked load.
    // Masked-out lanes are zero on both operands, so they XOR to zero.
    __m256i mask;
    {
      const long long kOn = -1;
      alignas(32) long long lanes[4] = {0, 0, 0, 0};
      for (std::size_t i = 0; i < kw; ++i) lanes[i] = kOn;
      mask = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
    }
    __m256i av[kBinaryPlanes];
    for (std::size_t t = 0; t < kBinaryPlanes; ++t)
      av[t] = _mm256_maskload_epi64(
          reinterpret_cast<const long long*>(a + t * kw), mask);
    for (std::size_t j = 0; j < n; ++j) {
      const __m256i wv = _mm256_maskload_epi64(
          reinterpret_cast<const long long*>(W + j * kw), mask);
      __m256i acc = popcnt256(_mm256_xor_si256(av[0], wv));
      for (std::size_t t = 1; t < kBinaryPlanes; ++t)
        acc = _mm256_add_epi64(acc, popcnt256(_mm256_xor_si256(av[t], wv)));
      pops[j] = hsum256(acc);
    }
    return;
  }
  // General shape: chunk the k dimension; each weight chunk is loaded once
  // and XORed against all 8 planes (8x fewer weight loads than per-plane).
  const std::size_t kw4 = kw - kw % 4;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t* w = W + j * kw;
    __m256i acc = _mm256_setzero_si256();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kw4; i += 4) {
      const __m256i wv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
      for (std::size_t t = 0; t < kBinaryPlanes; ++t) {
        const __m256i atv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + t * kw + i));
        acc = _mm256_add_epi64(acc, popcnt256(_mm256_xor_si256(atv, wv)));
      }
    }
    for (std::size_t i = kw4; i < kw; ++i)
      for (std::size_t t = 0; t < kBinaryPlanes; ++t)
        total += static_cast<std::uint64_t>(std::popcount(a[t * kw + i] ^ w[i]));
    pops[j] = total + hsum256(acc);
  }
}

// AVX-512 VPOPCNTDQ: native 64-bit-lane popcount; ragged tails are masked
// edge tiles — zero-masked loads on both operands XOR to zero, so the dead
// lanes contribute nothing.
__attribute__((target("avx512f,avx512vpopcntdq"))) void xpr_avx512(
    const std::uint64_t* a, const std::uint64_t* W, std::size_t n,
    std::size_t kw, std::uint64_t* pops) {
  if (kw <= 8) {
    // Hot path (k <= 512, every layer of the paper's models): all 8
    // activation planes live in ZMM registers across the whole weight
    // panel; each weight row is one masked load + 8 XOR/VPOPCNTQ pairs.
    const __mmask8 mask =
        kw == 8 ? static_cast<__mmask8>(0xff)
                : static_cast<__mmask8>((1u << kw) - 1u);
    __m512i av[kBinaryPlanes];
    for (std::size_t t = 0; t < kBinaryPlanes; ++t)
      av[t] = _mm512_maskz_loadu_epi64(mask, a + t * kw);
    for (std::size_t j = 0; j < n; ++j) {
      const __m512i wv = _mm512_maskz_loadu_epi64(mask, W + j * kw);
      __m512i acc = _mm512_popcnt_epi64(_mm512_xor_si512(av[0], wv));
      for (std::size_t t = 1; t < kBinaryPlanes; ++t)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_xor_si512(av[t], wv)));
      pops[j] = static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
    }
    return;
  }
  if (kw <= 16) {
    // Two-vector tier (k <= 1024, covers the VGG 3x3 conv patches, k = 576):
    // 16 ZMM hold the planes, each weight row is two masked loads.
    const __mmask8 m1 = kw >= 16 ? static_cast<__mmask8>(0xff)
                                 : static_cast<__mmask8>((1u << (kw - 8)) - 1u);
    __m512i av0[kBinaryPlanes], av1[kBinaryPlanes];
    for (std::size_t t = 0; t < kBinaryPlanes; ++t) {
      av0[t] = _mm512_loadu_si512(a + t * kw);
      av1[t] = _mm512_maskz_loadu_epi64(m1, a + t * kw + 8);
    }
    for (std::size_t j = 0; j < n; ++j) {
      const __m512i wv0 = _mm512_loadu_si512(W + j * kw);
      const __m512i wv1 = _mm512_maskz_loadu_epi64(m1, W + j * kw + 8);
      __m512i acc = _mm512_add_epi64(
          _mm512_popcnt_epi64(_mm512_xor_si512(av0[0], wv0)),
          _mm512_popcnt_epi64(_mm512_xor_si512(av1[0], wv1)));
      for (std::size_t t = 1; t < kBinaryPlanes; ++t) {
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_xor_si512(av0[t], wv0)));
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_xor_si512(av1[t], wv1)));
      }
      pops[j] = static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
    }
    return;
  }
  // General shape: each weight chunk loaded once, XORed against all planes.
  const std::size_t kw8 = kw - kw % 8;
  const __mmask8 edge = static_cast<__mmask8>((1u << (kw - kw8)) - 1u);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t* w = W + j * kw;
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t i = 0; i < kw8; i += 8) {
      const __m512i wv = _mm512_loadu_si512(w + i);
      for (std::size_t t = 0; t < kBinaryPlanes; ++t)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_xor_si512(
                     _mm512_loadu_si512(a + t * kw + i), wv)));
    }
    if (kw8 < kw) {
      const __m512i wv = _mm512_maskz_loadu_epi64(edge, w + kw8);
      for (std::size_t t = 0; t < kBinaryPlanes; ++t)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_xor_si512(
                     _mm512_maskz_loadu_epi64(edge, a + t * kw + kw8), wv)));
    }
    pops[j] = static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
  }
}

// AVX2 encoders: 8 float lanes per compare, movemask_ps collects the
// failing lanes; levels narrow to bytes through packs/packus, and each plane
// word is two byte compares + movemask_epi8.
__attribute__((target("avx2"))) inline __m256i levels8_avx2(__m256 x,
                                                            int* bad) {
  const __m256 lf = _mm256_mul_ps(_mm256_add_ps(x, _mm256_set1_ps(1.0f)),
                                  _mm256_set1_ps(4.0f));
  const __m256i lvl = _mm256_cvttps_epi32(lf);
  const __m256 lvlf = _mm256_cvtepi32_ps(lvl);
  __m256 ok = _mm256_and_ps(_mm256_cmp_ps(lf, _mm256_setzero_ps(), _CMP_GE_OQ),
                            _mm256_cmp_ps(lf, _mm256_set1_ps(8.0f), _CMP_LE_OQ));
  ok = _mm256_and_ps(ok, _mm256_cmp_ps(lvlf, lf, _CMP_EQ_OQ));
  const __m256 back = _mm256_sub_ps(_mm256_mul_ps(lvlf, _mm256_set1_ps(0.25f)),
                                    _mm256_set1_ps(1.0f));
  ok = _mm256_and_ps(ok, _mm256_cmp_ps(back, x, _CMP_EQ_OQ));
  *bad |= _mm256_movemask_ps(ok) ^ 0xff;
  return lvl;
}

/// 32 lanes of x as 32 level bytes in lane order.
__attribute__((target("avx2"))) inline __m256i levels32_avx2(const float* x,
                                                             int* bad) {
  const __m256i ab =
      _mm256_packs_epi32(levels8_avx2(_mm256_loadu_ps(x), bad),
                         levels8_avx2(_mm256_loadu_ps(x + 8), bad));
  const __m256i cd =
      _mm256_packs_epi32(levels8_avx2(_mm256_loadu_ps(x + 16), bad),
                         levels8_avx2(_mm256_loadu_ps(x + 24), bad));
  // packs/packus work per 128-bit half; the permute restores lane order.
  return _mm256_permutevar8x32_epi32(_mm256_packus_epi16(ab, cd),
                                     _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
}

/// Level bytes of one chunk of `len` lanes; a partial chunk is first copied
/// into a buffer padded with -1.0f (level 0). False if a lane is off-grid.
__attribute__((target("avx2"))) inline bool codes64_avx2(const float* x,
                                                         std::size_t len,
                                                         __m256i* lo,
                                                         __m256i* hi) {
  alignas(32) float pad[64];
  if (len < 64) {
    std::fill(pad + len, pad + 64, -1.0f);
    std::memcpy(pad, x, len * sizeof(float));
    x = pad;
  }
  int bad = 0;
  *lo = levels32_avx2(x, &bad);
  *hi = levels32_avx2(x + 32, &bad);
  return bad == 0;
}

__attribute__((target("avx2"))) inline void planes64_avx2(
    __m256i lo, __m256i hi, std::uint64_t* planes, std::size_t kw) {
  for (std::size_t t = 0; t < kBinaryPlanes; ++t) {
    const __m256i tv = _mm256_set1_epi8(static_cast<char>(t));
    const auto l = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpgt_epi8(lo, tv)));
    const auto h = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpgt_epi8(hi, tv)));
    planes[t * kw] = l | static_cast<std::uint64_t>(h) << 32;
  }
}

__attribute__((target("avx2"))) bool grid_codes_avx2(const float* x,
                                                     std::size_t n,
                                                     std::uint8_t* codes) {
  for (std::size_t p = 0; p < n; p += 64) {
    __m256i lo, hi;
    if (!codes64_avx2(x + p, n - p, &lo, &hi)) return false;
    alignas(32) std::uint8_t c[64];
    std::uint8_t* dst = n - p >= 64 ? codes + p : c;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32), hi);
    if (dst == c) std::memcpy(codes + p, c, n - p);
  }
  return true;
}

__attribute__((target("avx2"))) void encode_codes_row_avx2(
    const std::uint8_t* c, std::size_t k, std::uint64_t* planes,
    std::size_t ldp) {
  for (std::size_t w = 0; w < binary_words(k); ++w) {
    const std::uint8_t* src = c + w * 64;
    alignas(32) std::uint8_t pad[64];
    if (k - w * 64 < 64) {  // partial chunk: dead lanes are code 0
      std::memset(pad, 0, sizeof pad);
      std::memcpy(pad, src, k - w * 64);
      src = pad;
    }
    planes64_avx2(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 32)),
        planes + w, ldp);
  }
}

/// Bits of the first `len` lanes of a 64-lane chunk (len may exceed 64).
inline std::uint64_t live_mask(std::size_t len) {
  return len >= 64 ? ~0ull : (1ull << len) - 1;
}

// AVX-512BW encoders: 16 float lanes per compare mask; dead lanes are
// masked loads that read -1.0f (level 0), and each plane word is a single
// cmpgt_epu8_mask over 64 level bytes.
__attribute__((target("avx512f,avx512bw"))) inline __m128i levels16_avx512(
    const float* p, __mmask16 live, __mmask16* bad) {
  const __m512 x = _mm512_mask_loadu_ps(_mm512_set1_ps(-1.0f), live, p);
  const __m512 lf = _mm512_mul_ps(_mm512_add_ps(x, _mm512_set1_ps(1.0f)),
                                  _mm512_set1_ps(4.0f));
  const __m512i lvl = _mm512_cvttps_epi32(lf);
  const __m512 lvlf = _mm512_cvtepi32_ps(lvl);
  __mmask16 ok = _mm512_cmp_ps_mask(lf, _mm512_setzero_ps(), _CMP_GE_OQ);
  ok = _mm512_mask_cmp_ps_mask(ok, lf, _mm512_set1_ps(8.0f), _CMP_LE_OQ);
  ok = _mm512_mask_cmp_ps_mask(ok, lvlf, lf, _CMP_EQ_OQ);
  const __m512 back = _mm512_sub_ps(_mm512_mul_ps(lvlf, _mm512_set1_ps(0.25f)),
                                    _mm512_set1_ps(1.0f));
  ok = _mm512_mask_cmp_ps_mask(ok, back, x, _CMP_EQ_OQ);
  *bad |= static_cast<__mmask16>(~ok);
  return _mm512_cvtepi32_epi8(lvl);
}

/// Level bytes of one chunk of `len` lanes (len may exceed 64). False if a
/// live lane is off-grid.
__attribute__((target("avx512f,avx512bw"))) inline bool codes64_avx512(
    const float* x, std::size_t len, __m512i* codes) {
  const std::uint64_t live = live_mask(len);
  __mmask16 bad = 0;
  const __m128i q0 = levels16_avx512(x, static_cast<__mmask16>(live), &bad);
  const __m128i q1 =
      levels16_avx512(x + 16, static_cast<__mmask16>(live >> 16), &bad);
  const __m128i q2 =
      levels16_avx512(x + 32, static_cast<__mmask16>(live >> 32), &bad);
  const __m128i q3 =
      levels16_avx512(x + 48, static_cast<__mmask16>(live >> 48), &bad);
  const __m256i lo = _mm256_set_m128i(q1, q0);
  const __m256i hi = _mm256_set_m128i(q3, q2);
  *codes = _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
  return bad == 0;
}

__attribute__((target("avx512f,avx512bw"))) inline void planes64_avx512(
    __m512i codes, std::uint64_t* planes, std::size_t kw) {
  for (std::size_t t = 0; t < kBinaryPlanes; ++t)
    planes[t * kw] = _mm512_cmpgt_epu8_mask(
        codes, _mm512_set1_epi8(static_cast<char>(t)));
}

__attribute__((target("avx512f,avx512bw"))) bool grid_codes_avx512(
    const float* x, std::size_t n, std::uint8_t* codes) {
  for (std::size_t p = 0; p < n; p += 64) {
    __m512i c;
    if (!codes64_avx512(x + p, n - p, &c)) return false;
    _mm512_mask_storeu_epi8(codes + p, live_mask(n - p), c);
  }
  return true;
}

__attribute__((target("avx512f,avx512bw"))) void encode_codes_row_avx512(
    const std::uint8_t* c, std::size_t k, std::uint64_t* planes,
    std::size_t ldp) {
  for (std::size_t w = 0; w < binary_words(k); ++w)
    planes64_avx512(
        _mm512_maskz_loadu_epi8(live_mask(k - w * 64), c + w * 64),
        planes + w, ldp);
}

#pragma GCC diagnostic pop

#endif  // GBO_X86

#if defined(__ARM_NEON)

void xpr_neon(const std::uint64_t* a, const std::uint64_t* W, std::size_t n,
              std::size_t kw, std::uint64_t* pops) {
  const std::size_t kw2 = kw - kw % 2;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t* w = W + j * kw;
    std::uint64_t total = 0;
    uint64x2_t acc = vdupq_n_u64(0);
    for (std::size_t i = 0; i < kw2; i += 2) {
      const uint64x2_t wv = vld1q_u64(w + i);
      for (std::size_t t = 0; t < kBinaryPlanes; ++t) {
        const uint8x16_t x =
            veorq_u8(vreinterpretq_u8_u64(vld1q_u64(a + t * kw + i)),
                     vreinterpretq_u8_u64(wv));
        acc = vaddq_u64(acc,
                        vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(x)))));
      }
    }
    total += vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
    for (std::size_t i = kw2; i < kw; ++i)
      for (std::size_t t = 0; t < kBinaryPlanes; ++t)
        total += static_cast<std::uint64_t>(std::popcount(a[t * kw + i] ^ w[i]));
    pops[j] = total;
  }
}

#endif  // __ARM_NEON

constexpr BinaryKernel kScalarKernel{"scalar", &xpr_scalar, &grid_codes_scalar,
                                     &encode_codes_row_scalar};
#if defined(GBO_X86)
constexpr BinaryKernel kAvx2Kernel{"avx2", &xpr_avx2, &grid_codes_avx2,
                                   &encode_codes_row_avx2};
constexpr BinaryKernel kAvx512Kernel{"avx512_vpopcntdq", &xpr_avx512,
                                     &grid_codes_avx512,
                                     &encode_codes_row_avx512};
#endif
#if defined(__ARM_NEON)
// NEON has the popcount kernel only; its A-side encoders are the scalar
// reference ones.
constexpr BinaryKernel kNeonKernel{"neon", &xpr_neon, &grid_codes_scalar,
                                   &encode_codes_row_scalar};
#endif

std::vector<const BinaryKernel*> supported_kernels() {
  std::vector<const BinaryKernel*> ks{&kScalarKernel};
#if defined(GBO_X86)
  if (cpu().avx2) ks.push_back(&kAvx2Kernel);
  // The AVX-512 entry's encoders need BW (byte compares) on top of the
  // VPOPCNTDQ popcount kernel.
  if (cpu().avx512vpopcntdq && cpu().avx512bw) ks.push_back(&kAvx512Kernel);
#endif
#if defined(__ARM_NEON)
  ks.push_back(&kNeonKernel);
#endif
  return ks;
}

}  // namespace

const std::vector<const BinaryKernel*>& binary_kernels() {
  static const std::vector<const BinaryKernel*> ks = supported_kernels();
  return ks;
}

const BinaryKernel& binary_kernel() {
  static const BinaryKernel* k =
      force_scalar_kernels() ? &kScalarKernel : binary_kernels().back();
  return *k;
}

const BinaryKernel& binary_kernel_scalar() { return kScalarKernel; }

const char* binary_kernel_name() { return binary_kernel().name; }

std::string cpu_features() { return cpu_feature_string(); }

std::uint64_t binary_pack_count() {
  return g_binary_packs.load(std::memory_order_relaxed);
}

std::uint64_t binary_mvm_count() {
  return g_binary_mvms.load(std::memory_order_relaxed);
}

PackedBinaryB prepack_binary_b_t(std::size_t n, std::size_t k, const float* B,
                                 std::size_t ldb) {
  PackedBinaryB pb;
  pb.n = n;
  pb.k = k;
  pb.kw = binary_words(k);
  if (n == 0 || k == 0) return pb;  // empty handle, no pack counted
  g_binary_packs.fetch_add(1, std::memory_order_relaxed);
  pb.words.assign(n * pb.kw, 0);
  std::uint64_t* words = pb.words.data();
  const std::size_t kw = pb.kw;
  parallel_for(0, n, 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      const float* src = B + j * ldb;
      std::uint64_t* row = words + j * kw;
      for (std::size_t p = 0; p < k; ++p)
        if (src[p] >= 0.0f) row[p / 64] |= 1ull << (p % 64);
    }
  });
  return pb;
}

bool pack_binary_a_with(const BinaryKernel& kern, std::size_t m,
                        std::size_t k, const float* A, std::size_t lda,
                        std::uint64_t* dst) {
  GBO_TRACE_SPAN(obs::EventType::kBinaryPack, m,
                 static_cast<std::uint16_t>(k < 65535 ? k : 65535), m * k);
  const std::size_t kw = binary_words(k);
  const std::size_t row_words = kBinaryPlanes * kw;
  std::atomic<bool> ok{true};
  parallel_for(0, m, 16, [&](std::size_t lo, std::size_t hi) {
    // Each row is validated into level codes one block of whole 64-lane
    // chunks at a time, then encoded from the codes: the conv route's two
    // steps, with the codes on the stack.
    constexpr std::size_t kBlock = 1024;
    std::uint8_t codes[kBlock];
    for (std::size_t i = lo; i < hi && ok.load(std::memory_order_relaxed);
         ++i) {
      for (std::size_t p = 0; p < k; p += kBlock) {
        const std::size_t len = std::min(kBlock, k - p);
        if (!kern.grid_codes(A + i * lda + p, len, codes)) {
          ok.store(false, std::memory_order_relaxed);
          break;
        }
        kern.encode_codes_row(codes, len, dst + i * row_words + p / 64, kw);
      }
    }
  });
  return ok.load(std::memory_order_relaxed);
}

bool pack_binary_a(std::size_t m, std::size_t k, const float* A,
                   std::size_t lda, std::uint64_t* dst) {
  return pack_binary_a_with(binary_kernel(), m, k, A, lda, dst);
}

bool binary_grid_codes(const float* x, std::size_t n, std::uint8_t* codes) {
  constexpr std::size_t kBlock = 1u << 14;  // whole 64-lane chunks
  auto* fn = binary_kernel().grid_codes;
  std::atomic<bool> ok{true};
  parallel_for(0, (n + kBlock - 1) / kBlock, 1,
               [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi && ok.load(std::memory_order_relaxed);
         ++b) {
      const std::size_t p = b * kBlock;
      if (!fn(x + p, std::min(kBlock, n - p), codes + p))
        ok.store(false, std::memory_order_relaxed);
    }
  });
  return ok.load(std::memory_order_relaxed);
}

void pack_binary_codes(std::size_t m, std::size_t k, const std::uint8_t* C,
                       std::size_t ldc, std::uint64_t* dst) {
  const std::size_t kw = binary_words(k);
  const std::size_t row_words = kBinaryPlanes * kw;
  auto* fn = binary_kernel().encode_codes_row;
  parallel_for(0, m, 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      fn(C + i * ldc, k, dst + i * row_words, kw);
  });
}

void gemm_binary_with(const BinaryKernel& kern, std::size_t m, std::size_t n,
                      std::size_t k, const std::uint64_t* packedA,
                      const PackedBinaryB& B, float* C, std::size_t ldc) {
  assert(B.n == n && B.k == k);
  if (m == 0 || n == 0) return;
  g_binary_mvms.fetch_add(1, std::memory_order_relaxed);
  if (k == 0) {
    for (std::size_t i = 0; i < m; ++i)
      std::memset(C + i * ldc, 0, n * sizeof(float));
    return;
  }
  GBO_TRACE_SPAN(obs::EventType::kBinaryMvm, m,
                 static_cast<std::uint16_t>(n < 65535 ? n : 65535),
                 2ull * m * n * k);
  const std::size_t kw = B.kw;
  const std::uint64_t* wwords = B.words.data();
  auto* fn = kern.xor_popcount_row;
  const std::int64_t mk =
      static_cast<std::int64_t>(kBinaryPlanes) * static_cast<std::int64_t>(k);
  // (8k - 2P)/8 is an integer multiple of 1/4 below 2^24: the int->float
  // conversion and the 0.125f (power of two) multiply are both exact, which
  // is what makes this equal to the float kernels bit for bit.
  //
  // Popcounts land in a fixed stack block of output columns, so the serving
  // path allocates nothing; each kernel call still sweeps a whole panel of
  // up to kPopBlock weight rows.
  constexpr std::size_t kPopBlock = 256;
  parallel_for(0, m, 4, [&](std::size_t lo, std::size_t hi) {
    std::uint64_t pops[kPopBlock];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t* ai = packedA + i * kBinaryPlanes * kw;
      float* Ci = C + i * ldc;
      for (std::size_t j0 = 0; j0 < n; j0 += kPopBlock) {
        const std::size_t nb = std::min(kPopBlock, n - j0);
        fn(ai, wwords + j0 * kw, nb, kw, pops);
        for (std::size_t j = 0; j < nb; ++j) {
          const std::int64_t pop = static_cast<std::int64_t>(pops[j]);
          Ci[j0 + j] = static_cast<float>(mk - 2 * pop) * 0.125f;
        }
      }
    }
  });
}

void gemm_binary(std::size_t m, std::size_t n, std::size_t k,
                 const std::uint64_t* packedA, const PackedBinaryB& B, float* C,
                 std::size_t ldc) {
  gemm_binary_with(binary_kernel(), m, n, k, packedA, B, C, ldc);
}

}  // namespace gbo::gemm
